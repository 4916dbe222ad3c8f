//! A `Link` wrapper that every frame of a benchmark world passes through:
//! it counts frames and bytes, timestamps sends while tracing, and can
//! corrupt replies so that the checker's detection can be tested.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use adn::rpc::error::RpcResult;
use adn::rpc::message::MessageKind;
use adn::rpc::transport::{EndpointAddr, Frame, Link};
use adn::rpc::wire_format::peek_envelope;

/// Flat id of the benchmark client.
pub const CLIENT_ADDR: EndpointAddr = 100;
/// Flat id of the first server replica; replicas follow consecutively.
pub const SERVER_BASE: EndpointAddr = 200;

/// Who sent a frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sender {
    Client,
    Server,
    Processor,
}

pub fn sender_of(src: EndpointAddr) -> Sender {
    if src == CLIENT_ADDR {
        Sender::Client
    } else if (SERVER_BASE..SERVER_BASE + 100).contains(&src) {
        Sender::Server
    } else {
        Sender::Processor
    }
}

/// One traced `Link::send`.
#[derive(Debug, Clone, Copy)]
pub struct SendEvent {
    pub call_id: u64,
    pub sender: Sender,
    pub dst: EndpointAddr,
    /// Entry into `Link::send`, ns since the tap's epoch.
    pub at_ns: u64,
    /// Time inside `Link::send` (shared by the frames of one batch).
    pub dur_ns: u64,
}

/// Counters and trace buffers shared by every tap of one world.
pub struct TapState {
    epoch: Instant,
    frames: AtomicU64,
    bytes: AtomicU64,
    processor_frames: AtomicU64,
    recording: AtomicBool,
    events: Mutex<Vec<SendEvent>>,
    corrupt: AtomicBool,
    pub corrupted: AtomicU64,
}

impl TapState {
    pub fn new(epoch: Instant) -> Arc<Self> {
        Arc::new(Self {
            epoch,
            frames: AtomicU64::new(0),
            bytes: AtomicU64::new(0),
            processor_frames: AtomicU64::new(0),
            recording: AtomicBool::new(false),
            events: Mutex::new(Vec::new()),
            corrupt: AtomicBool::new(false),
            corrupted: AtomicU64::new(0),
        })
    }

    /// Nanoseconds since the shared epoch.
    pub fn now_ns(&self) -> u64 {
        self.at(Instant::now())
    }

    /// `t` as nanoseconds since the shared epoch.
    pub fn at(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// (frames, bytes, frames sent by processors) so far.
    pub fn counts(&self) -> (u64, u64, u64) {
        (
            self.frames.load(Ordering::SeqCst),
            self.bytes.load(Ordering::SeqCst),
            self.processor_frames.load(Ordering::SeqCst),
        )
    }

    pub fn set_recording(&self, on: bool) {
        if on {
            self.events
                .lock()
                .expect("tap events poisoned")
                .reserve(1 << 20);
        }
        self.recording.store(on, Ordering::SeqCst);
    }

    pub fn take_events(&self) -> Vec<SendEvent> {
        std::mem::take(&mut *self.events.lock().expect("tap events poisoned"))
    }

    /// Flip the last payload byte of every successful reply to the client.
    #[cfg(test)]
    pub fn set_corrupt(&self, on: bool) {
        self.corrupt.store(on, Ordering::SeqCst);
    }

    fn count(&self, frame: &Frame) {
        self.frames.fetch_add(1, Ordering::Relaxed);
        self.bytes
            .fetch_add(frame.payload.len() as u64, Ordering::Relaxed);
        if sender_of(frame.src) == Sender::Processor {
            self.processor_frames.fetch_add(1, Ordering::Relaxed);
        }
    }

    fn maybe_corrupt(&self, frame: &mut Frame) {
        if frame.dst != CLIENT_ADDR || !self.corrupt.load(Ordering::Relaxed) {
            return;
        }
        let Ok(env) = peek_envelope(&frame.payload) else {
            return;
        };
        // The response schema ends with the payload field, so the last
        // byte of an OK reply belongs to the echoed payload.
        if env.kind == MessageKind::Response && !env.aborted {
            if let Some(last) = frame.payload.last_mut() {
                *last ^= 0x5a;
                self.corrupted.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    fn record(&self, frames: &[(EndpointAddr, EndpointAddr, u64)], at_ns: u64, dur_ns: u64) {
        let mut events = self.events.lock().expect("tap events poisoned");
        for &(src, dst, call_id) in frames {
            events.push(SendEvent {
                call_id,
                sender: sender_of(src),
                dst,
                at_ns,
                dur_ns,
            });
        }
    }
}

fn describe(frame: &Frame) -> (EndpointAddr, EndpointAddr, u64) {
    let call_id = peek_envelope(&frame.payload).map_or(0, |env| env.call_id);
    (frame.src, frame.dst, call_id)
}

/// The wrapper handed to the client, the servers and the controller.
pub struct Tap {
    inner: Arc<dyn Link>,
    state: Arc<TapState>,
}

impl Tap {
    pub fn new(inner: Arc<dyn Link>, state: Arc<TapState>) -> Arc<Self> {
        Arc::new(Self { inner, state })
    }
}

impl Link for Tap {
    fn send(&self, mut frame: Frame) -> RpcResult<()> {
        self.state.count(&frame);
        self.state.maybe_corrupt(&mut frame);
        if !self.state.recording.load(Ordering::Relaxed) {
            return self.inner.send(frame);
        }
        let meta = describe(&frame);
        let at = self.state.now_ns();
        let result = self.inner.send(frame);
        let dur = self.state.now_ns() - at;
        self.state.record(&[meta], at, dur);
        result
    }

    fn send_batch(&self, mut frames: Vec<Frame>) -> usize {
        for frame in &mut frames {
            self.state.count(frame);
            self.state.maybe_corrupt(frame);
        }
        if !self.state.recording.load(Ordering::Relaxed) {
            return self.inner.send_batch(frames);
        }
        let meta: Vec<_> = frames.iter().map(describe).collect();
        let at = self.state.now_ns();
        let sent = self.inner.send_batch(frames);
        let dur = self.state.now_ns() - at;
        self.state.record(&meta, at, dur);
        sent
    }
}
