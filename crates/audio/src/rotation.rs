//! Soundfield manipulation from the listener pose: yaw rotation and
//! frontal zoom (Table VII "rotation" and "zoom" tasks).

use crate::ambisonics::Soundfield;

/// Rotates the soundfield by `yaw` radians about the vertical axis
/// (counter-clockwise listener rotation ⇒ field rotates clockwise).
///
/// Rotation about Z is exact and closed-form in ACN ordering: within
/// each order, the channel pairs with azimuthal index ±m mix with
/// `cos(m·yaw)` / `sin(m·yaw)`; the m = 0 channels are invariant.
pub fn rotate_yaw(field: &Soundfield, yaw: f64) -> Soundfield {
    let mut out = field.clone();
    let (s1, c1) = yaw.sin_cos();
    let (s2, c2) = (2.0 * yaw).sin_cos();
    let n = field.len();
    for i in 0..n {
        // Order 1: channels 1 (Y, m=-1) and 3 (X, m=+1).
        let y = field.data[1][i];
        let x = field.data[3][i];
        out.data[1][i] = c1 * y - s1 * x;
        out.data[3][i] = s1 * y + c1 * x;
        // Order 2, |m| = 1: channels 5 (T, m=-1) and 7 (S, m=+1).
        let t = field.data[5][i];
        let s = field.data[7][i];
        out.data[5][i] = c1 * t - s1 * s;
        out.data[7][i] = s1 * t + c1 * s;
        // Order 2, |m| = 2: channels 4 (V, m=-2) and 8 (U, m=+2).
        let v = field.data[4][i];
        let u = field.data[8][i];
        out.data[4][i] = c2 * v - s2 * u;
        out.data[8][i] = s2 * v + c2 * u;
        // Channels 0 (W), 2 (Z), 6 (R) are yaw-invariant.
    }
    out
}

/// Frontal zoom: emphasizes sound from the look direction (+X) and
/// de-emphasizes the rear, following the first-order "dominance"
/// transform. `amount` ∈ [-1, 1]; 0 is identity.
///
/// # Panics
///
/// Panics when `amount` is outside [-1, 1].
pub(crate) fn zoom_forward(field: &Soundfield, amount: f64) -> Soundfield {
    assert!((-1.0..=1.0).contains(&amount), "zoom amount must be in [-1, 1]");
    let mut out = field.clone();
    let a = amount;
    for i in 0..field.len() {
        let w = field.data[0][i];
        let x = field.data[3][i];
        // First-order dominance along +X (Lund/Gerzon form, SN3D).
        out.data[0][i] = w + a * x * 0.5;
        out.data[3][i] = x + a * w * 0.5;
        // Higher-order channels scale toward the front lobe.
        let gain = 1.0 + 0.25 * a;
        out.data[8][i] = field.data[8][i] * gain;
        out.data[4][i] = field.data[4][i] / gain;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ambisonics::{encode_block, sh_coefficients};

    #[test]
    fn rotating_by_zero_is_identity() {
        let field = encode_block(&[1.0, 0.5, -0.25], 0.7, 0.2);
        let out = rotate_yaw(&field, 0.0);
        assert_eq!(out, field);
    }

    #[test]
    fn rotation_moves_source_azimuth() {
        // A source at azimuth 0 rotated by -0.5 should equal a source
        // encoded at azimuth 0.5 (field rotation is opposite to listener
        // rotation by convention: rotate_yaw(θ) re-expresses the field
        // in a frame yawed by θ).
        let field = encode_block(&[1.0], 0.5, 0.0);
        let rotated = rotate_yaw(&field, 0.5);
        let direct = encode_block(&[1.0], 0.0, 0.0);
        for ch in 0..9 {
            assert!(
                (rotated.data[ch][0] - direct.data[ch][0]).abs() < 1e-9,
                "channel {ch}: {} vs {}",
                rotated.data[ch][0],
                direct.data[ch][0]
            );
        }
    }

    #[test]
    fn rotation_preserves_energy() {
        let field = encode_block(&[1.0, -1.0, 0.3], 1.1, 0.4);
        let rotated = rotate_yaw(&field, 2.0);
        assert!((rotated.energy() - field.energy()).abs() < 1e-9);
    }

    #[test]
    fn rotation_composes() {
        let field = encode_block(&[0.8], 0.3, 0.1);
        let once = rotate_yaw(&rotate_yaw(&field, 0.4), 0.3);
        let combined = rotate_yaw(&field, 0.7);
        for ch in 0..9 {
            assert!((once.data[ch][0] - combined.data[ch][0]).abs() < 1e-9);
        }
    }

    #[test]
    fn zoom_zero_is_identity() {
        let field = encode_block(&[1.0, 2.0], -0.8, 0.0);
        assert_eq!(zoom_forward(&field, 0.0), field);
    }

    #[test]
    fn zoom_boosts_frontal_sources() {
        let front = encode_block(&[1.0], 0.0, 0.0);
        let back = encode_block(&[1.0], std::f64::consts::PI, 0.0);
        let zf = zoom_forward(&front, 0.8);
        let zb = zoom_forward(&back, 0.8);
        // W channel (perceived loudness proxy) grows for front, shrinks
        // for back.
        assert!(zf.data[0][0] > 1.0);
        assert!(zb.data[0][0] < 1.0);
    }

    #[test]
    #[should_panic]
    fn zoom_out_of_range_panics() {
        let field = encode_block(&[1.0], 0.0, 0.0);
        let _ = zoom_forward(&field, 1.5);
    }

    #[test]
    fn sh_rotation_identity_on_invariant_channels() {
        let c = sh_coefficients(0.9, 0.5);
        let field = encode_block(&[1.0], 0.9, 0.5);
        let rotated = rotate_yaw(&field, 1.3);
        assert!((rotated.data[0][0] - c[0]).abs() < 1e-12);
        assert!((rotated.data[2][0] - c[2]).abs() < 1e-12);
        assert!((rotated.data[6][0] - c[6]).abs() < 1e-12);
    }
}
