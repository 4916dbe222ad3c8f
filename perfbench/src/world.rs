//! A benchmark world: client, echo servers, controller and deployed chain,
//! with every frame passing through the benchmark's [`Tap`].

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use adn::cluster::resources::{
    AdnConfig, NodeId, NodeSpec, ReplicaSpec, ServiceSpec, SmartNicSpec, SwitchId, SwitchSpec,
};
use adn::cluster::ClusterStore;
use adn::controller::placement::Environment;
use adn::controller::runtime::AppRegistration;
use adn::controller::Controller;
use adn::harness::{object_store_schemas, object_store_service};
use adn::rpc::engine::{Engine, EngineChain, Verdict};
use adn::rpc::error::{RpcError, RpcResult};
use adn::rpc::message::RpcMessage;
use adn::rpc::runtime::{
    spawn_server, Handler, PendingCall, RpcClient, ServerConfig, ServerHandle,
};
use adn::rpc::schema::ServiceSchema;
use adn::rpc::transport::{Frame, InProcNetwork, Link, TcpLink};
use adn::rpc::value::Value;

use crate::tap::{Tap, TapState, CLIENT_ADDR, SERVER_BASE};
use crate::workload::{Call, Env, Inputs, Transport, Workload};

/// Name of the benchmark's application in the controller.
pub const APP: &str = "app";

/// Per-call timings recorded by code the benchmark owns (the echo handler
/// and the in-app engine wrappers) while tracing.
#[derive(Default)]
pub struct Recorder {
    on: AtomicBool,
    /// (call id, ns inside the server handler).
    pub handler: Mutex<Vec<(u64, u64)>>,
    /// (element, ns inside `Engine::process`) for in-app engines.
    pub stages: Mutex<Vec<(String, u64)>>,
    /// In-app engine executions, counted whenever the wrappers are in.
    pub stage_runs: AtomicU64,
}

impl Recorder {
    pub fn set(&self, on: bool) {
        self.on.store(on, Ordering::SeqCst);
    }

    fn on(&self) -> bool {
        self.on.load(Ordering::Relaxed)
    }
}

/// Wraps an in-app engine to time and count its executions.
struct TimedEngine {
    inner: Box<dyn Engine>,
    rec: Arc<Recorder>,
}

impl Engine for TimedEngine {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn process(&mut self, msg: &mut RpcMessage) -> Verdict {
        self.rec.stage_runs.fetch_add(1, Ordering::Relaxed);
        if !self.rec.on() {
            return self.inner.process(msg);
        }
        let start = Instant::now();
        let verdict = self.inner.process(msg);
        let ns = start.elapsed().as_nanos() as u64;
        self.rec
            .stages
            .lock()
            .expect("stage log poisoned")
            .push((self.inner.name().to_owned(), ns));
        verdict
    }

    fn export_state(&self) -> Vec<u8> {
        self.inner.export_state()
    }

    fn import_state(&mut self, image: &[u8]) -> Result<(), String> {
        self.inner.import_state(image)
    }
}

/// Placeholder used while an engine is moved into its wrapper.
struct Vacant;

impl Engine for Vacant {
    fn name(&self) -> &str {
        "vacant"
    }

    fn process(&mut self, _msg: &mut RpcMessage) -> Verdict {
        Verdict::Forward
    }
}

fn wrap_chain(chain: &mut EngineChain, rec: &Arc<Recorder>) {
    for idx in 0..chain.len() {
        let inner = chain
            .replace(idx, Box::new(Vacant))
            .expect("index within chain");
        chain.replace(
            idx,
            Box::new(TimedEngine {
                inner,
                rec: rec.clone(),
            }),
        );
    }
}

fn echo_handler(service: Arc<ServiceSchema>, rec: Arc<Recorder>) -> Handler {
    Box::new(move |req: &RpcMessage| {
        let start = rec.on().then(Instant::now);
        let method = service
            .method_by_id(req.method_id)
            .expect("requests carry the service's only method");
        let mut resp = RpcMessage::response_to(req, method.response.clone());
        resp.set("ok", Value::Bool(true));
        if let Some(p) = req.get("payload") {
            resp.set("payload", p.clone());
        }
        if let Some(start) = start {
            let ns = start.elapsed().as_nanos() as u64;
            rec.handler
                .lock()
                .expect("handler log poisoned")
                .push((req.call_id, ns));
        }
        resp
    })
}

/// One host of the TCP fabric, composed like a bridge: local endpoints
/// are reached through an in-process fabric, remote ones through the
/// host's `TcpLink`, and a pump re-injects inbound TCP frames locally.
struct TcpHost {
    link: Arc<TcpLink>,
    net: InProcNetwork,
    pump: Mutex<Option<JoinHandle<()>>>,
}

impl TcpHost {
    fn new() -> RpcResult<Arc<Self>> {
        let link = TcpLink::bind("127.0.0.1:0")?;
        let net = InProcNetwork::new();
        let (rx_link, rx_net) = (link.clone(), net.clone());
        let pump = std::thread::Builder::new()
            .name("perfbench-tcp-pump".to_owned())
            .spawn(move || {
                while let Ok(frame) = rx_link.incoming().recv() {
                    let _ = rx_net.send(frame);
                }
            })
            .map_err(RpcError::Io)?;
        Ok(Arc::new(Self {
            link,
            net,
            pump: Mutex::new(Some(pump)),
        }))
    }

    /// Closes the sockets and waits (bounded) for the pump to see it.
    fn close(&self) {
        self.link.close();
        let pump = self.pump.lock().expect("pump handle poisoned").take();
        if let Some(pump) = pump {
            let deadline = Instant::now() + Duration::from_secs(2);
            while !pump.is_finished() && Instant::now() < deadline {
                std::thread::sleep(Duration::from_millis(1));
            }
            if pump.is_finished() {
                let _ = pump.join();
            }
        }
    }
}

impl Link for TcpHost {
    fn send(&self, frame: Frame) -> RpcResult<()> {
        if self.net.is_attached(frame.dst) {
            self.net.send(frame)
        } else {
            self.link.send(frame)
        }
    }
}

/// The solver's view of the hardware, matching the harness's presets.
pub fn environment(env: Env) -> Environment {
    let rich = env == Env::Rich;
    let node = |id: u32| NodeSpec {
        id: NodeId(id),
        name: format!("node{id}"),
        cpu_slots: 16,
        ebpf_capable: rich,
        smartnic: rich.then_some(SmartNicSpec { cpu_slots: 8 }),
    };
    Environment {
        client_node: node(1),
        server_node: node(2),
        switch: rich.then(|| SwitchSpec {
            id: SwitchId(1),
            name: "tor".into(),
            programmable: true,
            table_capacity: 4096,
        }),
        allow_in_app: true,
    }
}

/// The AdnConfig a workload deploys.
pub fn adn_config(workload: &Workload, seed: u64) -> AdnConfig {
    AdnConfig {
        app: APP.into(),
        src_service: "frontend".into(),
        dst_service: "storage".into(),
        chain: workload.chain(),
        seed,
    }
}

pub struct World {
    pub controller: Controller,
    client: Arc<RpcClient>,
    servers: Vec<Arc<ServerHandle>>,
    pub tap: Arc<TapState>,
    pub rec: Arc<Recorder>,
    pub service: Arc<ServiceSchema>,
    /// Time inside `Controller::run_pending` for the initial deployment.
    pub deploy: Duration,
    hosts: Vec<Arc<TcpHost>>,
    _store: ClusterStore,
}

impl World {
    /// Builds the world and deploys the workload's chain.
    pub fn build(workload: &Workload, seed: u64, epoch: Instant) -> Result<World, String> {
        let (request, response) = object_store_schemas();
        let service = object_store_service();
        let store = ClusterStore::new();
        let events = store.watch();
        let env = environment(workload.env);
        store.add_node(env.client_node.clone());
        store.add_node(env.server_node.clone());
        let tap = TapState::new(epoch);
        let rec = Arc::new(Recorder::default());

        let replica_addrs: Vec<u64> = (0..workload.replicas as u64)
            .map(|i| SERVER_BASE + i)
            .collect();
        // (client-side fabric, client-side link, server-side fabric,
        // server-side link, TCP hosts)
        let (client_net, client_link, server_net, server_link, hosts) = match workload.transport {
            Transport::InProc => {
                let net = InProcNetwork::new();
                let link: Arc<dyn Link> = Tap::new(Arc::new(net.clone()), tap.clone());
                (net.clone(), link.clone(), net, link, vec![])
            }
            Transport::Tcp => {
                let a = TcpHost::new().map_err(|e| format!("bind client host: {e}"))?;
                let b = TcpHost::new().map_err(|e| format!("bind server host: {e}"))?;
                for &addr in &replica_addrs {
                    a.link.add_route(addr, b.link.local_addr());
                }
                b.link.add_route(CLIENT_ADDR, a.link.local_addr());
                let link_a: Arc<dyn Link> = Tap::new(a.clone(), tap.clone());
                let link_b: Arc<dyn Link> = Tap::new(b.clone(), tap.clone());
                (a.net.clone(), link_a, b.net.clone(), link_b, vec![a, b])
            }
        };

        let servers: Vec<Arc<ServerHandle>> = replica_addrs
            .iter()
            .map(|&addr| {
                let frames = server_net.attach(addr);
                Arc::new(spawn_server(
                    ServerConfig {
                        addr,
                        service: service.clone(),
                        chain: EngineChain::new(),
                    },
                    server_link.clone(),
                    frames,
                    echo_handler(service.clone(), rec.clone()),
                ))
            })
            .collect();
        store.add_service(ServiceSpec {
            name: "storage".into(),
            replicas: replica_addrs
                .iter()
                .map(|&endpoint| ReplicaSpec {
                    node: NodeId(2),
                    endpoint,
                })
                .collect(),
        });

        let client_frames = client_net.attach(CLIENT_ADDR);
        let client = RpcClient::new(
            CLIENT_ADDR,
            client_link.clone(),
            client_frames,
            service.clone(),
            EngineChain::new(),
        );
        let controller = Controller::with_link(store.clone(), client_net, client_link, 10_000);
        controller.register_app(
            APP,
            AppRegistration {
                request,
                response,
                service: service.clone(),
                client: client.clone(),
                servers: servers.clone(),
                env,
            },
        );
        store.apply_config(adn_config(workload, seed));
        let started = Instant::now();
        controller
            .run_pending(&events)
            .map_err(|e| format!("deploy: {e}"))?;
        let deploy = started.elapsed();
        Ok(World {
            controller,
            client,
            servers,
            tap,
            rec,
            service,
            deploy,
            hosts,
            _store: store,
        })
    }

    /// The placement the solver chose.
    pub fn placement(&self) -> String {
        self.controller
            .describe_app(APP)
            .unwrap_or_else(|| "<no deployment>".into())
    }

    /// The request message for `call`.
    pub fn request(&self, inputs: &Inputs, call: &Call) -> RpcMessage {
        let method = self.service.method_by_id(1).expect("method 1");
        RpcMessage::request(0, 1, method.request.clone())
            .with("object_id", call.object_id)
            .with("username", call.user)
            .with("payload", inputs.payloads[call.payload].as_slice().to_vec())
    }

    pub fn send(&self, msg: RpcMessage) -> RpcResult<PendingCall> {
        self.client.send_call(msg, SERVER_BASE)
    }

    /// Puts timing wrappers around the in-app engines of client and servers.
    pub fn wrap_in_app_engines(&self) {
        self.client.with_chain(|c| wrap_chain(c, &self.rec));
        for server in &self.servers {
            server.with_chain(|c| wrap_chain(c, &self.rec));
        }
    }

    /// Starts or stops every trace source: in-band spans at sampling 1.0,
    /// link timestamps, handler and in-app engine timings.
    pub fn set_tracing(&self, on: bool) {
        self.controller
            .set_trace_sampling(APP, if on { 1.0 } else { 0.0 });
        self.tap.set_recording(on);
        self.rec.set(on);
    }
}

impl Drop for World {
    fn drop(&mut self) {
        self.client.shutdown();
        for host in &self.hosts {
            host.close();
        }
    }
}
