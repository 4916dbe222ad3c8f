//! The flat-identifier virtual link layer.
//!
//! Paper §3: "The network and the software stack under the application
//! should offer no protocols or abstractions by default except for a
//! (virtual) link layer that can deliver packets to endpoints based on a
//! flat identifier such as a MAC address."
//!
//! [`Frame`] is that packet: source and destination flat ids plus opaque
//! bytes. Two realizations are provided:
//!
//! * [`InProcNetwork`] — a process-local fabric over crossbeam channels, the
//!   default for experiments (both the ADN path and the baseline mesh path
//!   ride it, so fabric cost is identical for the comparison).
//! * [`TcpLink`] — length-delimited frames over TCP for actually crossing
//!   host boundaries; used by the distributed examples.

use std::collections::HashMap;
use std::io::{IoSlice, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use crossbeam::channel::{Receiver, Sender, TrySendError};
use parking_lot::{Mutex, RwLock};

use crate::error::{RpcError, RpcResult};

/// Flat endpoint identifier (the "MAC address" of the virtual link layer).
pub type EndpointAddr = u64;

/// A link-layer frame: flat addressing plus opaque payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// Sender's flat id.
    pub src: EndpointAddr,
    /// Receiver's flat id.
    pub dst: EndpointAddr,
    /// Opaque bytes. The ADN path carries schema-driven message encodings;
    /// the baseline mesh path carries HTTP/2-lite byte streams.
    pub payload: Vec<u8>,
}

/// Anything that can push a frame toward a destination endpoint.
pub trait Link: Send + Sync {
    /// Delivers `frame` to `frame.dst`, or fails if the endpoint is unknown
    /// or disconnected.
    fn send(&self, frame: Frame) -> RpcResult<()>;

    /// Delivers a batch of frames, returning how many were accepted.
    /// Failures are per-frame: a dead destination costs only its own frames.
    /// The default forwards one at a time; implementations override to
    /// amortize locking and syscalls (see [`TcpLink`]'s vectored writes).
    fn send_batch(&self, frames: Vec<Frame>) -> usize {
        frames.into_iter().filter_map(|f| self.send(f).ok()).count()
    }
}

// ---------------------------------------------------------------------------
// In-process fabric
// ---------------------------------------------------------------------------

#[derive(Default)]
struct InProcState {
    endpoints: HashMap<EndpointAddr, Sender<Frame>>,
}

/// A process-local frame fabric. Endpoints attach with [`InProcNetwork::attach`]
/// and receive their frames on the returned channel.
///
/// Inbound queues are unbounded by default (the historical behavior, and
/// what the golden sim log pins). Overload-hardened deployments set a
/// capacity — per endpoint via [`InProcNetwork::attach_bounded`] or fabric-
/// wide via [`InProcNetwork::set_default_capacity`] — after which a full
/// queue drops the frame like a saturated NIC would: counted in
/// [`InProcNetwork::inbound_drops`], never an error to the sender (the
/// sender's retry/deadline machinery is the recovery path). Control
/// channels (processor `Ctl`, controller events) ride their own crossbeam
/// channels, not this fabric, so they are exempt by construction.
#[derive(Clone, Default)]
pub struct InProcNetwork {
    state: Arc<RwLock<InProcState>>,
    /// Capacity for future `attach` calls; 0 = unbounded.
    default_capacity: Arc<AtomicUsize>,
    /// Frames dropped at full inbound queues, fabric-wide.
    inbound_drops: Arc<AtomicU64>,
}

impl InProcNetwork {
    /// Creates an empty fabric.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the inbound-queue capacity applied by subsequent
    /// [`InProcNetwork::attach`] calls (`None` = unbounded). Existing
    /// endpoints keep the capacity they attached with.
    pub fn set_default_capacity(&self, capacity: Option<usize>) {
        self.default_capacity
            .store(capacity.unwrap_or(0), Ordering::Relaxed);
    }

    /// Frames dropped because an inbound queue was full, fabric-wide.
    pub fn inbound_drops(&self) -> u64 {
        self.inbound_drops.load(Ordering::Relaxed)
    }

    /// Attaches an endpoint, returning its frame receiver. Re-attaching an
    /// address replaces the previous endpoint (used by live migration: the
    /// new instance takes over the flat id). The inbound queue uses the
    /// fabric's default capacity (unbounded unless configured).
    pub fn attach(&self, addr: EndpointAddr) -> Receiver<Frame> {
        match self.default_capacity.load(Ordering::Relaxed) {
            0 => self.attach_with(addr, None),
            cap => self.attach_with(addr, Some(cap)),
        }
    }

    /// Attaches an endpoint with an explicit inbound-queue capacity.
    pub fn attach_bounded(&self, addr: EndpointAddr, capacity: usize) -> Receiver<Frame> {
        self.attach_with(addr, Some(capacity.max(1)))
    }

    fn attach_with(&self, addr: EndpointAddr, capacity: Option<usize>) -> Receiver<Frame> {
        let (tx, rx) = match capacity {
            Some(cap) => crossbeam::channel::bounded(cap),
            None => crossbeam::channel::unbounded(),
        };
        self.state.write().endpoints.insert(addr, tx);
        rx
    }

    /// Detaches an endpoint; its queued frames are dropped.
    pub fn detach(&self, addr: EndpointAddr) {
        self.state.write().endpoints.remove(&addr);
    }

    /// Whether an endpoint is currently attached.
    pub fn is_attached(&self, addr: EndpointAddr) -> bool {
        self.state.read().endpoints.contains_key(&addr)
    }

    /// Number of attached endpoints.
    pub fn endpoint_count(&self) -> usize {
        self.state.read().endpoints.len()
    }
}

impl Link for InProcNetwork {
    fn send(&self, frame: Frame) -> RpcResult<()> {
        let state = self.state.read();
        let tx = state
            .endpoints
            .get(&frame.dst)
            .ok_or(RpcError::UnknownEndpoint(frame.dst))?;
        match tx.try_send(frame) {
            Ok(()) => Ok(()),
            Err(TrySendError::Full(_)) => {
                // A saturated queue behaves like a dropped packet, not a
                // send failure: count it and let the sender's retry and
                // deadline machinery recover.
                self.inbound_drops.fetch_add(1, Ordering::Relaxed);
                Ok(())
            }
            Err(TrySendError::Disconnected(_)) => Err(RpcError::Disconnected),
        }
    }

    /// One endpoint-table read lock for the whole batch.
    fn send_batch(&self, frames: Vec<Frame>) -> usize {
        let state = self.state.read();
        frames
            .into_iter()
            .filter_map(|frame| match state.endpoints.get(&frame.dst) {
                Some(tx) => match tx.try_send(frame) {
                    Ok(()) => Some(()),
                    Err(TrySendError::Full(_)) => {
                        self.inbound_drops.fetch_add(1, Ordering::Relaxed);
                        Some(()) // accepted by the fabric, dropped at the queue
                    }
                    Err(TrySendError::Disconnected(_)) => None,
                },
                None => None,
            })
            .count()
    }
}

// ---------------------------------------------------------------------------
// TCP link
// ---------------------------------------------------------------------------

// Wire framing for TCP: 4-byte big-endian length, then src (8 bytes BE),
// dst (8 bytes BE), then payload. The length counts the 16 address bytes
// and the payload.

/// The largest frame length (address bytes plus payload) a [`TcpLink`]
/// sends or accepts. A longer prefix on the wire means a corrupt or hostile
/// stream: the reader counts it in [`TcpLink::rejected_frames`] and closes
/// the connection before allocating anything.
pub const MAX_FRAME_LEN: usize = 16 << 20;

/// Writes `frames` back to back as `[header, payload]` slice pairs, one
/// 20-byte framing header per frame, with vectored writes: payloads are
/// never copied. A short write resumes where the kernel stopped.
fn write_frames(mut stream: &TcpStream, frames: &[Frame]) -> std::io::Result<()> {
    let headers: Vec<[u8; 20]> = frames
        .iter()
        .map(|f| {
            let mut h = [0u8; 20];
            h[0..4].copy_from_slice(&((16 + f.payload.len()) as u32).to_be_bytes());
            h[4..12].copy_from_slice(&f.src.to_be_bytes());
            h[12..20].copy_from_slice(&f.dst.to_be_bytes());
            h
        })
        .collect();
    let parts: Vec<&[u8]> = headers
        .iter()
        .zip(frames)
        .flat_map(|(h, f)| [&h[..], &f.payload[..]])
        .collect();
    // `parts[i][off..]` is the first byte not yet written.
    let (mut i, mut off) = (0, 0);
    while i < parts.len() {
        let slices: Vec<IoSlice<'_>> = std::iter::once(&parts[i][off..])
            .chain(parts[i + 1..].iter().copied())
            .map(IoSlice::new)
            .collect();
        let mut n = match stream.write_vectored(&slices) {
            Ok(0) => return Err(std::io::ErrorKind::WriteZero.into()),
            Ok(n) => n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        };
        while i < parts.len() && n >= parts[i].len() - off {
            n -= parts[i].len() - off;
            i += 1;
            off = 0;
        }
        off += n;
    }
    Ok(())
}

/// Reads one frame: the address header into a stack array and the payload
/// straight into a buffer of its exact size. A length prefix shorter than
/// the address header or longer than [`MAX_FRAME_LEN`] fails with
/// [`std::io::ErrorKind::InvalidData`] before anything is allocated.
fn read_frame(stream: &mut TcpStream) -> std::io::Result<Frame> {
    let mut len_buf = [0u8; 4];
    stream.read_exact(&mut len_buf)?;
    let len = u32::from_be_bytes(len_buf) as usize;
    if !(16..=MAX_FRAME_LEN).contains(&len) {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("frame length {len} outside 16..={MAX_FRAME_LEN}"),
        ));
    }
    let mut addrs = [0u8; 16];
    stream.read_exact(&mut addrs)?;
    let mut payload = vec![0u8; len - 16];
    stream.read_exact(&mut payload)?;
    let src = u64::from_be_bytes(addrs[0..8].try_into().expect("8 bytes"));
    let dst = u64::from_be_bytes(addrs[8..16].try_into().expect("8 bytes"));
    Ok(Frame { src, dst, payload })
}

/// One outbound connection. A writer holds `writing` for a whole frame or
/// group, so frames from concurrent senders never interleave on the
/// socket; `close` shuts the stream down without waiting for a writer.
struct PeerConn {
    stream: TcpStream,
    writing: Mutex<()>,
}

impl PeerConn {
    fn write(&self, frames: &[Frame]) -> std::io::Result<()> {
        let _writing = self.writing.lock();
        write_frames(&self.stream, frames)
    }
}

/// A TCP realization of the virtual link layer for one host.
///
/// Each host runs one `TcpLink`, binds a listener, and registers a routing
/// table mapping remote flat ids to socket addresses (in a real deployment
/// the controller distributes this table; here tests populate it directly).
/// Frames to local endpoints are delivered on the host's receive channel.
pub struct TcpLink {
    local_addr: SocketAddr,
    routes: RwLock<HashMap<EndpointAddr, SocketAddr>>,
    conns: Mutex<HashMap<SocketAddr, Arc<PeerConn>>>,
    incoming_rx: Receiver<Frame>,
    accepted: Arc<Mutex<Vec<TcpStream>>>,
    closed: Arc<AtomicBool>,
    inbound_drops: Arc<AtomicU64>,
    rejected_frames: Arc<AtomicU64>,
}

impl TcpLink {
    /// Binds a listener on `bind` (use port 0 for an ephemeral port) and
    /// starts the accept loop with an unbounded inbound queue.
    pub fn bind(bind: &str) -> RpcResult<Arc<Self>> {
        Self::bind_with_capacity(bind, None)
    }

    /// Like [`TcpLink::bind`], but bounds the host's inbound frame queue.
    /// When the queue is full, reader threads drop the frame (counted in
    /// [`TcpLink::inbound_drops`]) instead of buffering without limit —
    /// the overload-control backpressure point for cross-host traffic.
    pub fn bind_with_capacity(bind: &str, capacity: Option<usize>) -> RpcResult<Arc<Self>> {
        let listener = TcpListener::bind(bind)?;
        let local_addr = listener.local_addr()?;
        let (incoming_tx, incoming_rx) = match capacity {
            Some(cap) => crossbeam::channel::bounded(cap.max(1)),
            None => crossbeam::channel::unbounded(),
        };
        let accepted: Arc<Mutex<Vec<TcpStream>>> = Arc::new(Mutex::new(Vec::new()));
        let closed = Arc::new(AtomicBool::new(false));
        let inbound_drops = Arc::new(AtomicU64::new(0));
        let rejected_frames = Arc::new(AtomicU64::new(0));

        let link = Arc::new(Self {
            local_addr,
            routes: RwLock::new(HashMap::new()),
            conns: Mutex::new(HashMap::new()),
            incoming_rx,
            accepted: accepted.clone(),
            closed: closed.clone(),
            inbound_drops: inbound_drops.clone(),
            rejected_frames: rejected_frames.clone(),
        });

        std::thread::Builder::new()
            .name(format!("tcp-link-accept-{local_addr}"))
            .spawn(move || {
                for stream in listener.incoming() {
                    if closed.load(Ordering::Relaxed) {
                        return; // listener drops; the port is released
                    }
                    let Ok(mut stream) = stream else { continue };
                    if let Ok(clone) = stream.try_clone() {
                        accepted.lock().push(clone);
                    }
                    let tx = incoming_tx.clone();
                    let drops = inbound_drops.clone();
                    let rejected = rejected_frames.clone();
                    std::thread::Builder::new()
                        .name("tcp-link-read".to_owned())
                        .spawn(move || {
                            stream.set_nodelay(true).ok();
                            loop {
                                let frame = match read_frame(&mut stream) {
                                    Ok(frame) => frame,
                                    Err(e) => {
                                        if e.kind() == std::io::ErrorKind::InvalidData {
                                            // The stream is out of sync. The
                                            // `accepted` clone keeps the fd
                                            // open, so shut it down explicitly.
                                            rejected.fetch_add(1, Ordering::Relaxed);
                                            let _ = stream.shutdown(Shutdown::Both);
                                        }
                                        break;
                                    }
                                };
                                match tx.try_send(frame) {
                                    Ok(()) => {}
                                    Err(TrySendError::Full(_)) => {
                                        drops.fetch_add(1, Ordering::Relaxed);
                                    }
                                    Err(TrySendError::Disconnected(_)) => break,
                                }
                            }
                        })
                        .expect("spawn reader thread");
                }
            })
            .expect("spawn accept thread");

        Ok(link)
    }

    /// Frames dropped because the inbound queue was full.
    pub fn inbound_drops(&self) -> u64 {
        self.inbound_drops.load(Ordering::Relaxed)
    }

    /// Inbound frames whose length prefix was outside
    /// `16..=`[`MAX_FRAME_LEN`]; each one closed its connection.
    pub fn rejected_frames(&self) -> u64 {
        self.rejected_frames.load(Ordering::Relaxed)
    }

    /// Shuts the link down: stops accepting, severs every accepted and
    /// outbound connection, and releases the listening port. Peers' next
    /// sends to this host fail with an [`RpcError`]; a peer recovers by
    /// re-pointing its route at a live host.
    pub fn close(&self) {
        self.closed.store(true, Ordering::Relaxed);
        // Wake the accept loop so it observes the flag and exits.
        let _ = TcpStream::connect_timeout(&self.local_addr, Duration::from_millis(200));
        for stream in self.accepted.lock().drain(..) {
            let _ = stream.shutdown(Shutdown::Both);
        }
        for (_, conn) in self.conns.lock().drain() {
            let _ = conn.stream.shutdown(Shutdown::Both);
        }
    }

    /// The bound socket address (for distributing routes).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Registers (or updates) the socket address hosting a flat id.
    pub fn add_route(&self, endpoint: EndpointAddr, to: SocketAddr) {
        self.routes.write().insert(endpoint, to);
    }

    /// Frames addressed to this host's endpoints.
    pub fn incoming(&self) -> &Receiver<Frame> {
        &self.incoming_rx
    }

    fn connection_to(&self, peer: SocketAddr) -> RpcResult<Arc<PeerConn>> {
        let mut conns = self.conns.lock();
        if let Some(conn) = conns.get(&peer) {
            return Ok(conn.clone());
        }
        let stream = TcpStream::connect_timeout(&peer, Duration::from_secs(5))?;
        stream.set_nodelay(true)?;
        let conn = Arc::new(PeerConn {
            stream,
            writing: Mutex::new(()),
        });
        conns.insert(peer, conn.clone());
        Ok(conn)
    }

    /// Writes a same-peer group of frames under the peer's write lock. A
    /// failed write evicts the connection (unless another sender already
    /// replaced it), so the next send redials.
    fn write_group(&self, peer: SocketAddr, frames: &[Frame]) -> RpcResult<()> {
        if frames.iter().any(|f| 16 + f.payload.len() > MAX_FRAME_LEN) {
            return Err(RpcError::Io(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                format!("frame longer than {MAX_FRAME_LEN} bytes"),
            )));
        }
        let conn = self.connection_to(peer)?;
        conn.write(frames).map_err(|e| {
            let mut conns = self.conns.lock();
            if conns.get(&peer).is_some_and(|c| Arc::ptr_eq(c, &conn)) {
                conns.remove(&peer);
            }
            RpcError::Io(e)
        })
    }
}

impl Link for TcpLink {
    fn send(&self, frame: Frame) -> RpcResult<()> {
        // Two attempts: a cached connection may be stale (peer restarted),
        // in which case the write error evicts it and the second attempt
        // re-resolves the route and dials fresh.
        let mut last_err = None;
        for _ in 0..2 {
            let peer = {
                let routes = self.routes.read();
                *routes
                    .get(&frame.dst)
                    .ok_or(RpcError::UnknownEndpoint(frame.dst))?
            };
            match self.write_group(peer, std::slice::from_ref(&frame)) {
                Ok(()) => return Ok(()),
                Err(e) => last_err = Some(e),
            }
        }
        Err(last_err.unwrap_or(RpcError::Disconnected))
    }

    /// Groups frames by resolved peer (preserving per-peer order) and
    /// writes each group with vectored syscalls under the peer's write
    /// lock. A group whose write fails evicts the cached connection and
    /// falls back to per-frame [`TcpLink::send`], which redials — so one
    /// stale peer costs one redial, not the batch.
    fn send_batch(&self, frames: Vec<Frame>) -> usize {
        let mut groups: Vec<(SocketAddr, Vec<Frame>)> = Vec::new();
        {
            let routes = self.routes.read();
            for frame in frames {
                let Some(&peer) = routes.get(&frame.dst) else {
                    continue; // unrouted: same outcome as send()'s error
                };
                match groups.iter_mut().find(|(p, _)| *p == peer) {
                    Some((_, group)) => group.push(frame),
                    None => groups.push((peer, vec![frame])),
                }
            }
        }
        let mut sent = 0;
        for (peer, group) in groups {
            match self.write_group(peer, &group) {
                Ok(()) => sent += group.len(),
                Err(_) => {
                    sent += group.into_iter().filter_map(|f| self.send(f).ok()).count();
                }
            }
        }
        sent
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inproc_delivers_to_attached_endpoint() {
        let net = InProcNetwork::new();
        let rx = net.attach(7);
        net.send(Frame {
            src: 1,
            dst: 7,
            payload: b"hi".to_vec(),
        })
        .unwrap();
        let frame = rx.recv_timeout(Duration::from_secs(1)).unwrap();
        assert_eq!(frame.payload, b"hi");
        assert_eq!(frame.src, 1);
    }

    #[test]
    fn inproc_unknown_endpoint_errors() {
        let net = InProcNetwork::new();
        let err = net
            .send(Frame {
                src: 1,
                dst: 99,
                payload: vec![],
            })
            .unwrap_err();
        assert!(matches!(err, RpcError::UnknownEndpoint(99)));
    }

    #[test]
    fn inproc_reattach_replaces_endpoint() {
        let net = InProcNetwork::new();
        let _old = net.attach(5);
        let new = net.attach(5);
        net.send(Frame {
            src: 0,
            dst: 5,
            payload: b"x".to_vec(),
        })
        .unwrap();
        assert!(new.recv_timeout(Duration::from_secs(1)).is_ok());
    }

    #[test]
    fn inproc_detach_removes_endpoint() {
        let net = InProcNetwork::new();
        let _rx = net.attach(3);
        assert!(net.is_attached(3));
        net.detach(3);
        assert!(!net.is_attached(3));
        assert_eq!(net.endpoint_count(), 0);
    }

    #[test]
    fn inproc_bounded_queue_drops_overflow_and_counts() {
        let net = InProcNetwork::new();
        let rx = net.attach_bounded(7, 2);
        for i in 0..5u8 {
            net.send(Frame {
                src: 1,
                dst: 7,
                payload: vec![i],
            })
            .unwrap();
        }
        assert_eq!(net.inbound_drops(), 3, "overflow beyond capacity counted");
        // The first `capacity` frames survive in order; the rest were shed.
        assert_eq!(rx.try_recv().unwrap().payload, vec![0]);
        assert_eq!(rx.try_recv().unwrap().payload, vec![1]);
        assert!(rx.try_recv().is_err());
    }

    #[test]
    fn inproc_default_capacity_applies_to_later_attaches() {
        let net = InProcNetwork::new();
        let unbounded = net.attach(1);
        net.set_default_capacity(Some(1));
        let bounded = net.attach(2);
        for _ in 0..3 {
            net.send(Frame {
                src: 9,
                dst: 1,
                payload: vec![],
            })
            .unwrap();
            net.send(Frame {
                src: 9,
                dst: 2,
                payload: vec![],
            })
            .unwrap();
        }
        assert_eq!(unbounded.len(), 3, "pre-config endpoint stays unbounded");
        assert_eq!(bounded.len(), 1);
        assert_eq!(net.inbound_drops(), 2);
        // Batch sends count drops the same way.
        net.set_default_capacity(None);
        let frames: Vec<Frame> = (0..4)
            .map(|_| Frame {
                src: 9,
                dst: 2,
                payload: vec![],
            })
            .collect();
        assert_eq!(net.send_batch(frames), 4, "fabric accepted every frame");
        assert_eq!(net.inbound_drops(), 6);
    }

    #[test]
    fn tcp_bounded_queue_drops_overflow_and_counts() {
        let a = TcpLink::bind("127.0.0.1:0").unwrap();
        let b = TcpLink::bind_with_capacity("127.0.0.1:0", Some(2)).unwrap();
        a.add_route(2, b.local_addr());
        for i in 0..20u8 {
            a.send(Frame {
                src: 1,
                dst: 2,
                payload: vec![i],
            })
            .unwrap();
        }
        // Reader-side drops are asynchronous; wait for the queue+counter to
        // account for every frame.
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while (b.incoming().len() as u64) + b.inbound_drops() < 20 {
            assert!(std::time::Instant::now() < deadline, "frames unaccounted");
            std::thread::sleep(Duration::from_millis(5));
        }
        assert!(b.inbound_drops() >= 18, "drops={}", b.inbound_drops());
        assert_eq!(b.incoming().try_recv().unwrap().payload, vec![0]);
    }

    #[test]
    fn tcp_roundtrip_over_loopback() {
        let a = TcpLink::bind("127.0.0.1:0").unwrap();
        let b = TcpLink::bind("127.0.0.1:0").unwrap();
        a.add_route(200, b.local_addr());
        b.add_route(100, a.local_addr());

        a.send(Frame {
            src: 100,
            dst: 200,
            payload: b"ping".to_vec(),
        })
        .unwrap();
        let frame = b.incoming().recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!(frame.payload, b"ping");

        b.send(Frame {
            src: 200,
            dst: 100,
            payload: b"pong".to_vec(),
        })
        .unwrap();
        let frame = a.incoming().recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!(frame.payload, b"pong");
    }

    #[test]
    fn tcp_many_frames_preserve_order_per_connection() {
        let a = TcpLink::bind("127.0.0.1:0").unwrap();
        let b = TcpLink::bind("127.0.0.1:0").unwrap();
        a.add_route(2, b.local_addr());
        for i in 0..100u32 {
            a.send(Frame {
                src: 1,
                dst: 2,
                payload: i.to_be_bytes().to_vec(),
            })
            .unwrap();
        }
        for i in 0..100u32 {
            let frame = b.incoming().recv_timeout(Duration::from_secs(5)).unwrap();
            assert_eq!(frame.payload, i.to_be_bytes().to_vec());
        }
    }

    #[test]
    fn tcp_send_to_closed_peer_errors_then_reconnect_succeeds() {
        let a = TcpLink::bind("127.0.0.1:0").unwrap();
        let b = TcpLink::bind("127.0.0.1:0").unwrap();
        a.add_route(2, b.local_addr());
        a.send(Frame {
            src: 1,
            dst: 2,
            payload: b"pre".to_vec(),
        })
        .unwrap();
        assert_eq!(
            b.incoming()
                .recv_timeout(Duration::from_secs(5))
                .unwrap()
                .payload,
            b"pre".to_vec()
        );

        // Peer goes away entirely: connections severed, listener closed.
        b.close();
        // TCP buffering may absorb a few writes before the reset surfaces;
        // the send must eventually return an error — never panic or hang.
        let mut saw_err = false;
        for _ in 0..400 {
            if a.send(Frame {
                src: 1,
                dst: 2,
                payload: b"lost".to_vec(),
            })
            .is_err()
            {
                saw_err = true;
                break;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        assert!(saw_err, "send to a closed peer must surface an RpcError");

        // Failover: re-point the flat id at a live replacement host; the
        // next send redials and delivery resumes.
        let b2 = TcpLink::bind("127.0.0.1:0").unwrap();
        a.add_route(2, b2.local_addr());
        a.send(Frame {
            src: 1,
            dst: 2,
            payload: b"post".to_vec(),
        })
        .unwrap();
        assert_eq!(
            b2.incoming()
                .recv_timeout(Duration::from_secs(5))
                .unwrap()
                .payload,
            b"post".to_vec()
        );
    }

    #[test]
    fn inproc_send_batch_counts_per_frame() {
        let net = InProcNetwork::new();
        let rx = net.attach(7);
        let frames: Vec<Frame> = (0..5u64)
            .map(|i| Frame {
                src: 1,
                dst: if i == 2 { 99 } else { 7 },
                payload: vec![i as u8],
            })
            .collect();
        assert_eq!(net.send_batch(frames), 4);
        let got: Vec<u8> = (0..4).map(|_| rx.try_recv().unwrap().payload[0]).collect();
        assert_eq!(got, vec![0, 1, 3, 4], "order preserved, dead dst skipped");
    }

    #[test]
    fn tcp_send_batch_vectored_delivers_in_order() {
        let a = TcpLink::bind("127.0.0.1:0").unwrap();
        let b = TcpLink::bind("127.0.0.1:0").unwrap();
        let c = TcpLink::bind("127.0.0.1:0").unwrap();
        a.add_route(2, b.local_addr());
        a.add_route(3, c.local_addr());
        // Interleaved destinations, including a large payload so the group
        // write exercises the short-write path on some platforms.
        let mut frames = Vec::new();
        for i in 0..50u32 {
            frames.push(Frame {
                src: 1,
                dst: 2 + (i % 2) as u64,
                payload: if i == 10 {
                    vec![7u8; 256 * 1024]
                } else {
                    i.to_be_bytes().to_vec()
                },
            });
        }
        assert_eq!(a.send_batch(frames), 50);
        let mut to_b = Vec::new();
        for _ in 0..25 {
            to_b.push(b.incoming().recv_timeout(Duration::from_secs(5)).unwrap());
        }
        let mut to_c = Vec::new();
        for _ in 0..25 {
            to_c.push(c.incoming().recv_timeout(Duration::from_secs(5)).unwrap());
        }
        for (k, f) in to_b.iter().enumerate() {
            let i = 2 * k as u32;
            if i == 10 {
                assert_eq!(f.payload.len(), 256 * 1024);
            } else {
                assert_eq!(f.payload, i.to_be_bytes().to_vec());
            }
        }
        for (k, f) in to_c.iter().enumerate() {
            let i = 2 * k as u32 + 1;
            assert_eq!(f.payload, i.to_be_bytes().to_vec());
        }
    }

    #[test]
    fn tcp_send_batch_dead_peer_only_loses_its_group() {
        let a = TcpLink::bind("127.0.0.1:0").unwrap();
        let b = TcpLink::bind("127.0.0.1:0").unwrap();
        a.add_route(2, b.local_addr());
        // Route 3 to a port nothing listens on.
        let dead = TcpLink::bind("127.0.0.1:0").unwrap();
        let dead_addr = dead.local_addr();
        dead.close();
        std::thread::sleep(Duration::from_millis(50));
        a.add_route(3, dead_addr);

        let frames: Vec<Frame> = (0..6u64)
            .map(|i| Frame {
                src: 1,
                dst: 2 + (i % 2),
                payload: vec![i as u8],
            })
            .collect();
        let sent = a.send_batch(frames);
        assert!(sent >= 3, "live peer's frames must survive, sent={sent}");
        for _ in 0..3 {
            let f = b.incoming().recv_timeout(Duration::from_secs(5)).unwrap();
            assert_eq!(f.payload[0] % 2, 0);
        }
    }

    #[test]
    fn tcp_concurrent_large_sends_to_one_peer_never_interleave() {
        const THREADS: u8 = 4;
        const PER_THREAD: u8 = 6;
        // Larger than a loopback socket buffer, so writes come back short.
        const LEN: usize = 1 << 20;
        let a = TcpLink::bind("127.0.0.1:0").unwrap();
        let b = TcpLink::bind("127.0.0.1:0").unwrap();
        a.add_route(2, b.local_addr());
        let senders: Vec<_> = (0..THREADS)
            .map(|t| {
                let a = a.clone();
                std::thread::spawn(move || {
                    for seq in 0..PER_THREAD {
                        let frame = Frame {
                            src: t as u64,
                            dst: 2,
                            payload: vec![t * PER_THREAD + seq; LEN],
                        };
                        if seq % 2 == 0 {
                            a.send(frame).unwrap();
                        } else {
                            assert_eq!(a.send_batch(vec![frame]), 1);
                        }
                    }
                })
            })
            .collect();
        let mut next_seq = vec![0u8; THREADS as usize];
        for _ in 0..THREADS as usize * PER_THREAD as usize {
            let f = b.incoming().recv_timeout(Duration::from_secs(10)).unwrap();
            let t = f.src as u8;
            assert_eq!(f.payload.len(), LEN, "frame from sender {t} cut short");
            let want = t * PER_THREAD + next_seq[t as usize];
            assert!(f.payload.iter().all(|&byte| byte == want), "frame mixed");
            next_seq[t as usize] += 1;
        }
        for s in senders {
            s.join().unwrap();
        }
        assert!(next_seq.iter().all(|&n| n == PER_THREAD));
        assert_eq!(b.rejected_frames(), 0);
    }

    fn assert_closed_by_peer(stream: &mut TcpStream) {
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        match stream.read(&mut [0u8; 1]) {
            Ok(0) => {}
            Err(e) if e.kind() == std::io::ErrorKind::ConnectionReset => {}
            other => panic!("connection not closed by the peer: {other:?}"),
        }
    }

    #[test]
    fn tcp_forged_length_is_rejected_and_the_link_keeps_working() {
        let b = TcpLink::bind("127.0.0.1:0").unwrap();
        let mut forged = TcpStream::connect(b.local_addr()).unwrap();
        // Length 0xFFFF_FFFF and no body: a reader that allocated and read
        // the body first would wait here forever instead of disconnecting.
        forged.write_all(&[0xFF; 4]).unwrap();
        assert_closed_by_peer(&mut forged);
        assert_eq!(b.rejected_frames(), 1);
        assert_eq!(b.inbound_drops(), 0);
        assert!(b.incoming().is_empty());

        // A header shorter than the address bytes is rejected the same way.
        let mut short = TcpStream::connect(b.local_addr()).unwrap();
        short.write_all(&15u32.to_be_bytes()).unwrap();
        assert_closed_by_peer(&mut short);
        assert_eq!(b.rejected_frames(), 2);

        let a = TcpLink::bind("127.0.0.1:0").unwrap();
        a.add_route(2, b.local_addr());
        a.send(Frame {
            src: 1,
            dst: 2,
            payload: vec![9; MAX_FRAME_LEN - 16],
        })
        .unwrap();
        let f = b.incoming().recv_timeout(Duration::from_secs(10)).unwrap();
        assert_eq!(
            f.payload.len(),
            MAX_FRAME_LEN - 16,
            "the largest frame passes"
        );
        // A sender refuses a frame its peer would reject.
        let too_long = Frame {
            src: 1,
            dst: 2,
            payload: vec![9; MAX_FRAME_LEN - 15],
        };
        assert!(matches!(a.send(too_long.clone()), Err(RpcError::Io(_))));
        assert_eq!(a.send_batch(vec![too_long]), 0);
        assert_eq!(b.rejected_frames(), 2);
    }

    #[test]
    fn tcp_unknown_route_errors() {
        let a = TcpLink::bind("127.0.0.1:0").unwrap();
        assert!(matches!(
            a.send(Frame {
                src: 1,
                dst: 42,
                payload: vec![]
            }),
            Err(RpcError::UnknownEndpoint(42))
        ));
    }
}
