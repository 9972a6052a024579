//! A small fixed-weight encoder-decoder segmentation CNN.
//!
//! Architecture (RITnet-shaped, scaled down): two conv+pool encoder
//! stages, a bottleneck conv, two upsample+conv decoder stages, and a
//! 1×1 classification head over 4 classes (background, sclera, iris,
//! pupil). All convolutions are 3×3 except the head.
//!
//! Channel 0 is a hand-crafted "darkness" feature (inverted box blur)
//! that is passed through every stage, so the classification head can
//! threshold it into the four intensity bands of a synthetic eye; the
//! remaining channels carry deterministic pseudo-random filters that
//! contribute realistic compute and memory traffic (the paper's point is
//! the workload shape: 74 % convolution time, weights ≪ activations).
//! The mask reads channel 0 only; the other seven are the workload, not
//! waste, and are computed in full.
//!
//! # Borders and bit-exactness
//!
//! A tap outside the feature map reads the nearest edge pixel. Each layer
//! copies its input once into a buffer one pixel larger on every side
//! whose border repeats the edge, so the tap `(ky, kx)` of output row `y`
//! is the in-bounds slice `padded[y + ky][kx..kx + w]`, with no index
//! arithmetic per pixel. A row is cut into tiles of 16 output pixels, and
//! two output channels are computed together: a tile's 16 accumulators of
//! each channel stay in registers while they take every tap of every input
//! channel, `acc[x] += weight · src[kx + x]`, sharing each load of `src`,
//! and are written once. The `w % 16` pixels left at the row's end take one
//! channel and one tap at a time across all of them in memory. Either way
//! every output pixel sees its bias, then the non-zero taps in `(input
//! channel, ky, kx)` order, then the ReLU, each as its own rounded `f32`
//! operation — so every activation of every layer has the bits of the
//! pixel-at-a-time loop it replaced. The tests keep that loop and compare,
//! on maps whose widths are whole tiles, tiles and a remainder, and less
//! than one tile. Fusing the multiply and the add, summing taps in another
//! order or widening the accumulator would move bits.
//!
//! The convolution runs through [`wide::run`]: on a CPU with AVX-512 it is
//! a second copy of the same source compiled for 512-bit vectors, where a
//! tile is one register. Each lane performs its pixel's operations in the
//! order above, and rustc marks no float operation contractible or
//! reassociable, so that copy has the same bits; the tests compare the two.
//! The channel pair is for that copy: one tile is one chain of dependent
//! additions, two are two chains the vector unit runs side by side.

use illixr_image::wide::{self, Kernel};
use illixr_image::GrayImage;

/// Segmentation classes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EyeClass {
    /// Skin / background.
    Background = 0,
    /// Sclera (white of the eye).
    Sclera = 1,
    /// Iris.
    Iris = 2,
    /// Pupil.
    Pupil = 3,
}

impl EyeClass {
    /// Converts a class index (0–3) to the enum.
    ///
    /// # Panics
    ///
    /// Panics for indices above 3.
    pub(crate) fn from_index(i: usize) -> Self {
        match i {
            0 => Self::Background,
            1 => Self::Sclera,
            2 => Self::Iris,
            3 => Self::Pupil,
            _ => panic!("invalid eye class index {i}"),
        }
    }
}

/// A `channels × height × width` activation tensor.
#[derive(Debug, Clone)]
pub(crate) struct Tensor {
    /// Channels.
    pub ch: usize,
    /// Height.
    pub h: usize,
    /// Width.
    pub w: usize,
    /// CHW-ordered data.
    pub data: Vec<f32>,
}

impl Tensor {
    /// A zero tensor.
    pub(crate) fn zeros(ch: usize, h: usize, w: usize) -> Self {
        Self { ch, h, w, data: vec![0.0; ch * h * w] }
    }

    /// Row `y` of channel `c`.
    #[inline]
    fn row(&self, c: usize, y: usize) -> &[f32] {
        &self.data[(c * self.h + y) * self.w..][..self.w]
    }

    #[inline]
    fn row_mut(&mut self, c: usize, y: usize) -> &mut [f32] {
        &mut self.data[(c * self.h + y) * self.w..][..self.w]
    }

    /// A copy grown by one pixel on every side, the border repeating the
    /// edge: what a tap one step outside the tensor reads.
    fn replicate_padded(&self) -> Self {
        let mut data = Vec::with_capacity(self.ch * (self.h + 2) * (self.w + 2));
        for c in 0..self.ch {
            for y in 0..self.h + 2 {
                let row = self.row(c, y.saturating_sub(1).min(self.h - 1));
                data.push(row[0]);
                data.extend_from_slice(row);
                data.push(row[self.w - 1]);
            }
        }
        Self { ch: self.ch, h: self.h + 2, w: self.w + 2, data }
    }
}

/// `row[x] += weight · src[x]`, each product and each sum rounded on its
/// own. A zero weight adds nothing at all (not `+0.0`): that is how the
/// convolution and the head skip the taps channel 0's pass-through zeroes.
#[inline(always)]
fn add_scaled(row: &mut [f32], weight: f32, src: &[f32]) {
    if weight != 0.0 {
        for (acc, &v) in row.iter_mut().zip(src) {
            *acc += weight * v;
        }
    }
}

/// Output pixels [`Conv3x3::forward`] accumulates at once, in registers,
/// across all of their taps.
const TILE: usize = 16;

/// A 3×3 convolution layer with per-output-channel bias.
#[derive(Debug, Clone)]
struct Conv3x3 {
    in_ch: usize,
    out_ch: usize,
    /// `[out][in][ky][kx]` flattened.
    weights: Vec<f32>,
    bias: Vec<f32>,
}

impl Conv3x3 {
    /// Deterministic pseudo-random weights with channel 0 configured as
    /// either the darkness extractor (first layer) or a pass-through.
    fn new(in_ch: usize, out_ch: usize, seed: u32, first_layer: bool) -> Self {
        assert!(out_ch.is_multiple_of(2), "forward computes output channels in pairs");
        let mut weights = vec![0.0f32; out_ch * in_ch * 9];
        let mut bias = vec![0.0f32; out_ch];
        let mut state = seed.wrapping_mul(2654435761).wrapping_add(12345);
        let mut next = || {
            state = state.wrapping_mul(1664525).wrapping_add(1013904223);
            ((state >> 9) as f32 / (1 << 23) as f32 - 1.0) * 0.25
        };
        for o in 0..out_ch {
            for i in 0..in_ch {
                for k in 0..9 {
                    weights[(o * in_ch + i) * 9 + k] = next();
                }
            }
        }
        // Channel 0: darkness feature.
        if first_layer {
            // out0 = 1 − box-blur(intensity)  (via bias 1, weights −1/9).
            for w in weights.iter_mut().take(9) {
                *w = -1.0 / 9.0;
            }
            bias[0] = 1.0;
        } else {
            // out0 = in0 (center tap 1, all other taps/channels 0).
            for i in 0..in_ch {
                for k in 0..9 {
                    weights[i * 9 + k] = 0.0;
                }
            }
            weights[4] = 1.0;
            bias[0] = 0.0;
        }
        Self { in_ch, out_ch, weights, bias }
    }

    /// One output row at a time over the padded input, [`TILE`] pixels of
    /// two output channels at a time: each of the pair's tiles starts as
    /// its channel's bias, takes each non-zero tap in `(i, ky, kx)` order,
    /// and ends in the ReLU. The two share every input load and are two
    /// independent chains of additions. The `w % TILE` pixels left at the
    /// row's end take one channel and one tap at a time across all of
    /// them, `rest += w · src`.
    fn forward(&self, x: &Tensor) -> Tensor {
        wide::run(Forward { conv: self, x })
    }

    #[inline(always)]
    fn forward_body(&self, x: &Tensor) -> Tensor {
        assert_eq!(x.ch, self.in_ch, "channel mismatch");
        let padded = x.replicate_padded();
        let mut out = Tensor::zeros(self.out_ch, x.h, x.w);
        let taps = self.in_ch * 9;
        let tiled = x.w - x.w % TILE;
        for o in (0..self.out_ch).step_by(2) {
            let w0 = &self.weights[o * taps..][..taps];
            let w1 = &self.weights[(o + 1) * taps..][..taps];
            for y in 0..x.h {
                for t in (0..tiled).step_by(TILE) {
                    let mut a0 = [self.bias[o]; TILE];
                    let mut a1 = [self.bias[o + 1]; TILE];
                    for i in 0..self.in_ch {
                        for ky in 0..3 {
                            let src = &padded.row(i, y + ky)[t..];
                            for kx in 0..3 {
                                let (k, src) = (i * 9 + ky * 3 + kx, &src[kx..kx + TILE]);
                                add_scaled(&mut a0, w0[k], src);
                                add_scaled(&mut a1, w1[k], src);
                            }
                        }
                    }
                    for (o, acc) in [(o, a0), (o + 1, a1)] {
                        for (d, a) in out.row_mut(o, y)[t..t + TILE].iter_mut().zip(acc) {
                            *d = a.max(0.0);
                        }
                    }
                }
            }
        }
        for (o, weights) in self.weights.chunks_exact(taps).enumerate() {
            for y in 0..x.h {
                let rest = &mut out.row_mut(o, y)[tiled..];
                rest.fill(self.bias[o]);
                for (i, taps) in weights.chunks_exact(9).enumerate() {
                    for (ky, taps) in taps.chunks_exact(3).enumerate() {
                        let src = &padded.row(i, y + ky)[tiled..];
                        for (kx, &w) in taps.iter().enumerate() {
                            add_scaled(rest, w, &src[kx..]);
                        }
                    }
                }
                for acc in rest {
                    *acc = acc.max(0.0);
                }
            }
        }
        out
    }
}

/// [`Conv3x3::forward`] as a [`Kernel`].
struct Forward<'a> {
    conv: &'a Conv3x3,
    x: &'a Tensor,
}

impl Kernel for Forward<'_> {
    type Output = Tensor;

    #[inline(always)]
    fn run(self) -> Tensor {
        self.conv.forward_body(self.x)
    }
}

/// 2×2 max pooling of an even-sized tensor: output row `(c, y)` reads
/// input rows `(c, 2y)` and `(c, 2y + 1)`, which are adjacent in memory.
fn max_pool2(x: &Tensor) -> Tensor {
    debug_assert!(x.h.is_multiple_of(2) && x.w.is_multiple_of(2), "segment pools multiples of 4");
    let mut out = Tensor::zeros(x.ch, x.h / 2, x.w / 2);
    for (dst, rows) in out.data.chunks_exact_mut(out.w).zip(x.data.chunks_exact(2 * x.w)) {
        let (top, bottom) = rows.split_at(x.w);
        for (m, (t, b)) in dst.iter_mut().zip(top.chunks_exact(2).zip(bottom.chunks_exact(2))) {
            *m = t[0].max(t[1]).max(b[0]).max(b[1]);
        }
    }
    out
}

/// Nearest-neighbour doubling: input row `(c, y)` becomes output rows
/// `(c, 2y)` and `(c, 2y + 1)`, which are adjacent in memory.
fn upsample2(x: &Tensor) -> Tensor {
    let mut out = Tensor::zeros(x.ch, x.h * 2, x.w * 2);
    for (rows, src) in out.data.chunks_exact_mut(2 * out.w).zip(x.data.chunks_exact(x.w)) {
        let (top, bottom) = rows.split_at_mut(2 * x.w);
        for (pair, &v) in top.chunks_exact_mut(2).zip(src) {
            pair.fill(v);
        }
        bottom.copy_from_slice(top);
    }
    out
}

/// The segmentation network.
#[derive(Debug, Clone)]
pub struct SegmentationNet {
    enc1: Conv3x3,
    enc2: Conv3x3,
    bottleneck: Conv3x3,
    dec1: Conv3x3,
    dec2: Conv3x3,
    /// 1×1 head: `[class][channel]` weights + bias.
    head_w: Vec<f32>,
    head_b: Vec<f32>,
    channels: usize,
}

impl Default for SegmentationNet {
    fn default() -> Self {
        Self::new()
    }
}

impl SegmentationNet {
    /// Builds the fixed-weight network (8 feature channels).
    pub fn new() -> Self {
        let ch = 8;
        // Head: class scores are lines in the darkness feature v with
        // increasing slopes, partitioning v into
        // background < sclera < iris < pupil.
        let mut head_w = vec![0.0f32; 4 * ch];
        //                 slope      (channel 0 only)
        head_w[0] = 0.0; // background
        head_w[ch] = 4.0; // sclera
        head_w[2 * ch] = 8.0; // iris
        head_w[3 * ch] = 16.0; // pupil
        let head_b = vec![0.0, -0.8, -2.8, -9.0];
        Self {
            enc1: Conv3x3::new(1, ch, 1, true),
            enc2: Conv3x3::new(ch, ch, 2, false),
            bottleneck: Conv3x3::new(ch, ch, 3, false),
            dec1: Conv3x3::new(ch, ch, 4, false),
            dec2: Conv3x3::new(ch, ch, 5, false),
            head_w,
            head_b,
            channels: ch,
        }
    }

    /// Runs a forward pass, returning the per-pixel class mask.
    pub fn segment(&self, image: &GrayImage) -> Vec<EyeClass> {
        let (w, h) = (image.width(), image.height());
        assert!(w % 4 == 0 && h % 4 == 0, "input dimensions must be multiples of 4");
        if w == 0 || h == 0 {
            return Vec::new();
        }
        let input = Tensor { ch: 1, h, w, data: image.as_slice().to_vec() };
        let e1 = self.enc1.forward(&input);
        let p1 = max_pool2(&e1);
        let e2 = self.enc2.forward(&p1);
        let p2 = max_pool2(&e2);
        let b = self.bottleneck.forward(&p2);
        let u1 = upsample2(&b);
        let d1 = self.dec1.forward(&u1);
        let u2 = upsample2(&d1);
        let d2 = self.dec2.forward(&u2);
        // 1×1 classification head + argmax, a row of scores per class at
        // a time: the bias, then each non-zero channel weight in order.
        let mut mask = Vec::with_capacity(w * h);
        let mut scores = vec![0.0f32; 4 * w];
        for y in 0..h {
            for (class, row) in scores.chunks_exact_mut(w).enumerate() {
                row.fill(self.head_b[class]);
                for c in 0..self.channels {
                    add_scaled(row, self.head_w[class * self.channels + c], d2.row(c, y));
                }
            }
            for x in 0..w {
                let mut best = 0;
                let mut best_score = f32::NEG_INFINITY;
                for class in 0..4 {
                    let s = scores[class * w + x];
                    if s > best_score {
                        best_score = s;
                        best = class;
                    }
                }
                mask.push(EyeClass::from_index(best));
            }
        }
        mask
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eye::{render_eye, EyeParams};
    use illixr_core::boundary::fnv1a;

    #[test]
    fn classifies_intensity_bands() {
        // Quadrants of distinct intensities map to distinct classes.
        let img = GrayImage::from_fn(32, 32, |x, y| match (x < 16, y < 16) {
            (true, true) => 0.95,   // bright → background
            (false, true) => 0.65,  // sclera band
            (true, false) => 0.4,   // iris band
            (false, false) => 0.05, // dark → pupil
        });
        let net = SegmentationNet::new();
        let mask = net.segment(&img);
        // Sample away from quadrant borders (blur + pooling smears edges).
        let at = |x: usize, y: usize| mask[y * 32 + x];
        assert_eq!(at(5, 5), EyeClass::Background);
        assert_eq!(at(26, 5), EyeClass::Sclera);
        assert_eq!(at(5, 26), EyeClass::Iris);
        assert_eq!(at(26, 26), EyeClass::Pupil);
    }

    #[test]
    fn output_covers_every_pixel() {
        let img = GrayImage::from_fn(64, 32, |x, _| x as f32 / 64.0);
        let mask = SegmentationNet::new().segment(&img);
        assert_eq!(mask.len(), 64 * 32);
        assert!(SegmentationNet::new().segment(&GrayImage::new(0, 0)).is_empty());
    }

    #[test]
    fn deterministic() {
        let img = GrayImage::from_fn(32, 32, |x, y| ((x * y) % 7) as f32 / 7.0);
        let a = SegmentationNet::new().segment(&img);
        let b = SegmentationNet::new().segment(&img);
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic]
    fn rejects_unaligned_input() {
        let img = GrayImage::new(33, 32);
        let _ = SegmentationNet::new().segment(&img);
    }

    /// The per-element accessors the first implementation went through.
    impl Tensor {
        fn get(&self, c: usize, y: usize, x: usize) -> f32 {
            self.data[(c * self.h + y) * self.w + x]
        }

        fn set(&mut self, c: usize, y: usize, x: usize, v: f32) {
            self.data[(c * self.h + y) * self.w + x] = v;
        }
    }

    /// The convolution as first written, kept verbatim as the activation
    /// reference: the output pixel outermost, every tap read through a
    /// clamped index. `forward` must equal it bit for bit, so each output
    /// sees `bias`, then the non-zero taps in `(i, ky, kx)` order, then
    /// the ReLU.
    fn reference_forward(conv: &Conv3x3, x: &Tensor) -> Tensor {
        assert_eq!(x.ch, conv.in_ch, "channel mismatch");
        let get_clamped = |c: usize, y: isize, xx: isize| {
            let yy = y.clamp(0, x.h as isize - 1) as usize;
            let xx = xx.clamp(0, x.w as isize - 1) as usize;
            x.get(c, yy, xx)
        };
        let mut out = Tensor::zeros(conv.out_ch, x.h, x.w);
        for o in 0..conv.out_ch {
            for y in 0..x.h {
                for xx in 0..x.w {
                    let mut acc = conv.bias[o];
                    for i in 0..conv.in_ch {
                        let base = (o * conv.in_ch + i) * 9;
                        for ky in 0..3usize {
                            for kx in 0..3usize {
                                let w = conv.weights[base + ky * 3 + kx];
                                if w == 0.0 {
                                    continue;
                                }
                                let v = get_clamped(
                                    i,
                                    y as isize + ky as isize - 1,
                                    xx as isize + kx as isize - 1,
                                );
                                acc += w * v;
                            }
                        }
                    }
                    // ReLU fused.
                    out.set(o, y, xx, acc.max(0.0));
                }
            }
        }
        out
    }

    fn bits(t: &Tensor) -> Vec<u32> {
        t.data.iter().map(|v| v.to_bits()).collect()
    }

    /// `segment`'s chain up to the head, every layer run through `forward`
    /// and through `reference_forward` on the same input and compared on
    /// every channel, the seven filler channels included. Returns `d2`.
    fn assert_layers_bit_exact(net: &SegmentationNet, image: &GrayImage, what: &str) -> Tensor {
        assert_layers_match(net, image, what, reference_forward)
    }

    /// [`assert_layers_bit_exact`] against `expected` in place of
    /// `reference_forward`.
    fn assert_layers_match(
        net: &SegmentationNet,
        image: &GrayImage,
        what: &str,
        expected: fn(&Conv3x3, &Tensor) -> Tensor,
    ) -> Tensor {
        let mut x =
            Tensor { ch: 1, h: image.height(), w: image.width(), data: image.as_slice().to_vec() };
        type Resample = fn(&Tensor) -> Tensor;
        let chain: [(&str, &Conv3x3, Option<Resample>); 5] = [
            ("e1", &net.enc1, Some(max_pool2)),
            ("e2", &net.enc2, Some(max_pool2)),
            ("b", &net.bottleneck, Some(upsample2)),
            ("d1", &net.dec1, Some(upsample2)),
            ("d2", &net.dec2, None),
        ];
        for (name, conv, resample) in chain {
            let out = conv.forward(&x);
            let expected = expected(conv, &x);
            assert_eq!((out.ch, out.h, out.w), (expected.ch, expected.h, expected.w));
            assert!(
                bits(&out) == bits(&expected),
                "{what}: layer {name} differs on a {}x{} input",
                x.w,
                x.h
            );
            x = match resample {
                Some(resample) => resample(&out),
                None => out,
            };
        }
        x
    }

    /// Centre gaze and the four offsets `gaze.rs` checks, each with the
    /// mirrored right eye the plugin renders beside it.
    fn pinned_eyes() -> Vec<EyeParams> {
        [(0.0, 0.0), (0.25, 0.0), (-0.25, 0.1), (0.0, -0.2), (0.3, 0.2)]
            .into_iter()
            .flat_map(|(gx, gy)| {
                [gx, -gx].map(|gaze_x| EyeParams { gaze_x, gaze_y: gy, ..Default::default() })
            })
            .collect()
    }

    #[test]
    fn forward_is_bit_exact_on_rendered_eyes() {
        let net = SegmentationNet::new();
        for params in pinned_eyes() {
            assert_eq!((params.width, params.height), (96, 64));
            let what = format!("gaze ({}, {})", params.gaze_x, params.gaze_y);
            assert_layers_bit_exact(&net, &render_eye(&params), &what);
        }
    }

    /// 4×4 and 8×8 inputs reach 1×1 and 2×2 feature maps at the
    /// bottleneck, where every tap but the centre is a replicated edge.
    #[test]
    fn forward_is_bit_exact_down_to_one_pixel_maps() {
        let net = SegmentationNet::new();
        for (w, h) in [(4, 4), (8, 8), (64, 32)] {
            let image = GrayImage::from_fn(w, h, |x, y| ((x * 31 + y * 17) % 23) as f32 / 23.0);
            assert_layers_bit_exact(&net, &image, "pattern");
        }
    }

    /// Both copies of every layer, bit for bit: [`Kernel::run`] called
    /// directly is the portable one, `forward` the one `wide::run` picks
    /// (the same one on a host without AVX-512). The inputs are the pins'
    /// and one holding NaN, −0.0 and negative pixels, which reach the ReLU's
    /// `max` as they are.
    #[test]
    fn forward_copies_agree_to_the_bit() {
        let net = SegmentationNet::new();
        let portable: fn(&Conv3x3, &Tensor) -> Tensor = |conv, x| Forward { conv, x }.run();
        let mut images: Vec<GrayImage> = pinned_eyes().iter().map(render_eye).collect();
        for (w, h) in [(4, 4), (8, 8), (64, 32)] {
            images.push(GrayImage::from_fn(w, h, |x, y| ((x * 31 + y * 17) % 23) as f32 / 23.0));
        }
        images.push(GrayImage::from_fn(40, 24, |x, y| match (x * 7 + y * 13) % 11 {
            0 => f32::NAN,
            1 => -0.0,
            2 => -0.5,
            3 => 0.0,
            k => k as f32 / 11.0,
        }));
        for image in &images {
            let what = format!("copies on a {}x{} input", image.width(), image.height());
            assert_layers_match(&net, image, &what, portable);
        }
    }

    /// Taken from the first implementation, so `reference_forward` itself
    /// cannot drift: every bit of `d2` and every class of the mask for the
    /// last pinned eye.
    #[test]
    fn reference_activations_and_mask_are_pinned() {
        let net = SegmentationNet::new();
        let image = render_eye(pinned_eyes().last().expect("ten eyes"));
        let d2 = assert_layers_bit_exact(&net, &image, "pinned eye");
        assert_eq!((d2.ch, d2.h, d2.w), (8, 64, 96));
        assert_eq!(
            fnv1a(d2.data.iter().flat_map(|v| v.to_bits().to_le_bytes())),
            0xd05e_c3b6_c0c0_bd25
        );
        let mask = net.segment(&image);
        assert_eq!(fnv1a(mask.iter().map(|&class| class as u8)), 0x1310_1686_e409_0045);
    }
}
