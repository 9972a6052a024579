//! Session trace: the benchmark's own one-session loop over the public
//! server pieces — a [`ClientSession`] driven at paper Table III rates,
//! its jobs and render requests crossing a [`SharedLink`] into a
//! [`BatchScheduler`] and back — with a host-clock span around every
//! call. It is the engine's work without the engine, so what a fleet
//! repetition costs beyond `calls × span` is the engine's own share.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Duration;

use illixr_core::{Clock, SimClock, Time};
use illixr_sensors::types::PoseEstimate;
use illixr_server::{
    BatchScheduler, ClientSession, Direction, LinkConfig, RenderRequest, RenderToken,
    SchedulerConfig, SessionConfig, SharedLink,
};

use crate::span::Recorder;
use crate::stats::splitmix;

/// Root span of the loop.
pub const ROOT: &str = "session";

/// Payload sizes and modeled costs of `ServerBuilder::new()`.
const JOB_BYTES: u64 = 150_000;
const POSE_BYTES: u64 = 64;
const REQUEST_BYTES: u64 = 64;
const TOKEN_BYTES: u64 = 50_000;
const RENDER_COST: Duration = Duration::from_millis(5);
const WARP_COST: Duration = Duration::from_millis(1);

enum Event {
    Imu,
    Camera,
    Vsync,
    JobArrived(Time),
    JobDone(Time),
    PoseDelivered(PoseEstimate),
    RequestArrived(RenderRequest),
    Rendered(RenderRequest),
    TokenDelivered(RenderToken),
}

/// A time-ordered event list; ties run in insertion order.
#[derive(Default)]
struct Agenda {
    heap: BinaryHeap<Reverse<(u64, usize)>>,
    events: Vec<Option<Event>>,
}

impl Agenda {
    fn push(&mut self, at: Time, event: Event) {
        self.heap.push(Reverse((at.as_nanos(), self.events.len())));
        self.events.push(Some(event));
    }

    fn pop(&mut self) -> Option<(Time, Event)> {
        let Reverse((at, id)) = self.heap.pop()?;
        Some((Time::from_nanos(at), self.events[id].take().expect("each event pops once")))
    }
}

/// Drives one session for `sim_seconds` and returns the spans.
pub fn run(seed: u64, sim_seconds: f64) -> Recorder {
    let clock = SimClock::new();
    let config = SessionConfig::new(splitmix(seed, 0));
    let (imu_period, camera_period, vsync_period) = (
        Duration::from_secs_f64(1.0 / config.imu_hz),
        Duration::from_secs_f64(1.0 / config.camera_hz),
        Duration::from_secs_f64(1.0 / config.display_hz),
    );
    let shared_clock: Arc<dyn Clock> = Arc::new(clock.clone());
    let mut session = ClientSession::new(0, config, shared_clock);
    let mut link =
        SharedLink::new(LinkConfig::from_profile(illixr_core::link::LinkProfile::wifi(), seed));
    let mut pool = BatchScheduler::new(SchedulerConfig::default());
    let trajectory = session.trajectory().clone();

    let mut rec = Recorder::new(true);
    let mut frame = 0;
    rec.enter(ROOT, frame);
    rec.scope("server.session.connect", frame, || session.connect(Time::ZERO, false));

    let end = Time::from_secs_f64(sim_seconds);
    let mut agenda = Agenda::default();
    agenda.push(Time::ZERO + imu_period, Event::Imu);
    agenda.push(Time::ZERO + camera_period, Event::Camera);
    agenda.push(Time::ZERO, Event::Vsync);
    while let Some((now, event)) = agenda.pop() {
        if now >= end {
            break;
        }
        clock.advance_to(now);
        match event {
            Event::Imu => {
                rec.scope("server.session.imu", frame, || session.on_imu_due());
                agenda.push(now + imu_period, Event::Imu);
            }
            Event::Camera => {
                frame += 1;
                let job = rec.scope("server.session.camera", frame, || session.on_camera_due());
                if let Some(job) = job {
                    let arrives = rec.scope("server.link.transfer", frame, || {
                        link.transfer(Direction::Uplink, now, JOB_BYTES)
                    });
                    agenda.push(arrives, Event::JobArrived(job.frame.timestamp));
                }
                agenda.push(now + camera_period, Event::Camera);
            }
            Event::JobArrived(stamp) => {
                let done = rec.scope("server.scheduler.job", frame, || pool.schedule_batch(now, 1));
                agenda.push(done, Event::JobDone(stamp));
            }
            Event::JobDone(stamp) => {
                // Ideal VIO, as the fleets run it: ground truth at the
                // frame's timestamp.
                let pose = PoseEstimate {
                    timestamp: stamp,
                    pose: trajectory.pose(stamp),
                    velocity: trajectory.velocity(stamp),
                };
                let arrives = rec.scope("server.link.transfer", frame, || {
                    link.transfer(Direction::Downlink, now, POSE_BYTES)
                });
                agenda.push(arrives, Event::PoseDelivered(pose));
            }
            Event::PoseDelivered(pose) => {
                rec.scope("server.session.pose", frame, || session.on_pose_delivered(pose));
            }
            Event::Vsync => {
                let request =
                    rec.scope("server.session.vsync", frame, || session.on_vsync(now, WARP_COST));
                if let Some(request) = request {
                    let arrives = rec.scope("server.link.transfer", frame, || {
                        link.transfer(Direction::Uplink, now, REQUEST_BYTES)
                    });
                    agenda.push(arrives, Event::RequestArrived(request));
                }
                agenda.push(now + vsync_period, Event::Vsync);
            }
            Event::RequestArrived(request) => {
                agenda.push(now + RENDER_COST, Event::Rendered(request));
            }
            Event::Rendered(request) => {
                let arrives = rec.scope("server.link.transfer", frame, || {
                    link.transfer(Direction::Downlink, now, TOKEN_BYTES)
                });
                let token = RenderToken {
                    seq: request.seq,
                    pose_timestamp: request.pose_timestamp,
                    requested_at: request.requested_at,
                };
                agenda.push(arrives, Event::TokenDelivered(token));
            }
            Event::TokenDelivered(token) => {
                rec.scope("server.session.token", frame, || session.on_token_delivered(token));
            }
        }
    }
    rec.exit();
    black_box(session.telemetry.frames_displayed);
    rec
}
