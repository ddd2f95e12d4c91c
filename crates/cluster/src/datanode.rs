//! The datanode: a multi-threaded TCP block server.
//!
//! One accept thread hands each connection to its own worker thread,
//! which loops over framed requests until the peer closes, a read times
//! out, or the node shuts down. Storage goes through [`BlockStore`]
//! (CRC-trailed block files). The helper side of MSR repair runs *here*:
//! a [`Request::RepairRead`] ships the `β × sub` coefficient matrix and
//! the node returns the compressed `β·w`-byte payload, so the
//! `d/(d−k+1)` bandwidth saving is realized on the wire rather than
//! simulated.

use std::io;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, LazyLock, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use erasure::HelperTask;
use gf256::{Gf256, Matrix};

use crate::coordinator::Coordinator;
use crate::error::ClusterError;
use crate::protocol::{self, Request, Response};
use crate::router::MetaRouter;
use crate::store::BlockStore;

static NODE_REQUESTS: LazyLock<&'static telemetry::Counter> =
    LazyLock::new(|| telemetry::counter("cluster.node.requests"));
static NODE_RX: LazyLock<&'static telemetry::Counter> =
    LazyLock::new(|| telemetry::counter("cluster.node.rx_bytes"));
static NODE_TX: LazyLock<&'static telemetry::Counter> =
    LazyLock::new(|| telemetry::counter("cluster.node.tx_bytes"));
static NODE_ERRORS: LazyLock<&'static telemetry::Counter> =
    LazyLock::new(|| telemetry::counter("cluster.node.request_errors"));

/// Configuration of one datanode.
#[derive(Debug, Clone)]
pub struct DataNodeConfig {
    /// The node's cluster-wide id.
    pub id: usize,
    /// Directory for the node's [`BlockStore`].
    pub root: PathBuf,
    /// Per-connection socket read timeout; an idle connection past it is
    /// closed (the client reconnects transparently).
    pub read_timeout: Duration,
    /// Metadata layer to register with, heartbeat to, and answer
    /// [`Request::ManifestGet`] from, if any. A plain coordinator
    /// attaches as a 1-shard router via
    /// [`DataNodeConfig::with_coordinator`].
    pub meta: Option<Arc<MetaRouter>>,
    /// Heartbeat period when a coordinator is attached.
    pub heartbeat_every: Duration,
    /// Artificial per-request service delay, applied before each request
    /// is executed. Zero (the default) for production use; the pipeline
    /// bench sets it to model the network/disk service time of a real
    /// (non-loopback) datanode, which is what concurrent fan-out overlaps.
    pub request_delay: Duration,
    /// Artificial service *rate* in bytes/sec. When set, the node serves
    /// requests through a single service unit (one guard shared by all
    /// connections) and each request additionally holds it for
    /// `bytes_moved / rate` — so concurrent requests *queue* behind each
    /// other in proportion to the bytes they move, like a single disk or
    /// NIC. This is what makes repair traffic visibly interfere with
    /// foreground reads in `ext_repair_storm`: a code that moves fewer
    /// repair bytes steals less service time. `None` (the default) keeps
    /// the fully-parallel `request_delay`-only behavior.
    pub service_rate: Option<u64>,
}

impl DataNodeConfig {
    /// A config with the defaults used by the loopback harness: 30 s read
    /// timeout, 200 ms heartbeats.
    pub fn new(id: usize, root: impl Into<PathBuf>) -> Self {
        DataNodeConfig {
            id,
            root: root.into(),
            read_timeout: Duration::from_secs(30),
            meta: None,
            heartbeat_every: Duration::from_millis(200),
            request_delay: Duration::ZERO,
            service_rate: None,
        }
    }

    /// Attaches a single coordinator for registration + heartbeats,
    /// wrapped as a 1-shard [`MetaRouter`].
    #[must_use]
    pub fn with_coordinator(self, coordinator: Arc<Coordinator>) -> Self {
        self.with_router(MetaRouter::single(coordinator))
    }

    /// Attaches a (possibly sharded) metadata router for registration,
    /// heartbeats, and wire-served manifests.
    #[must_use]
    pub fn with_router(mut self, meta: Arc<MetaRouter>) -> Self {
        self.meta = Some(meta);
        self
    }

    /// Sets an artificial per-request service delay (see
    /// [`DataNodeConfig::request_delay`]).
    #[must_use]
    pub fn with_request_delay(mut self, delay: Duration) -> Self {
        self.request_delay = delay;
        self
    }

    /// Sets an artificial serialized service rate (see
    /// [`DataNodeConfig::service_rate`]).
    #[must_use]
    pub fn with_service_rate(mut self, bytes_per_sec: u64) -> Self {
        self.service_rate = Some(bytes_per_sec.max(1));
        self
    }
}

/// The node's service-time model, shared by all its connections: the
/// fixed per-request delay, and — when a rate is set — the single
/// service unit that serializes byte-proportional service.
#[derive(Debug, Clone)]
struct ServiceModel {
    delay: Duration,
    rate: Option<u64>,
    unit: Arc<Mutex<()>>,
}

/// A running datanode. Dropping the handle does *not* stop the server;
/// call [`DataNode::shutdown`] for a graceful stop that joins every
/// thread.
#[derive(Debug)]
pub struct DataNode {
    id: usize,
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept_thread: Option<JoinHandle<()>>,
    heartbeat_thread: Option<JoinHandle<()>>,
    conns: Arc<Mutex<Vec<TcpStream>>>,
}

impl DataNode {
    /// Binds `bind_addr` (use port 0 for an ephemeral port), registers
    /// with the coordinator if configured, and starts serving.
    ///
    /// # Errors
    ///
    /// Propagates bind and store-creation failures.
    pub fn spawn(
        bind_addr: impl ToSocketAddrs,
        config: DataNodeConfig,
    ) -> Result<Self, ClusterError> {
        let listener = TcpListener::bind(bind_addr)?;
        let addr = listener.local_addr()?;
        let store = Arc::new(BlockStore::open(&config.root)?);
        let stop = Arc::new(AtomicBool::new(false));
        let conns: Arc<Mutex<Vec<TcpStream>>> = Arc::new(Mutex::new(Vec::new()));

        if let Some(meta) = &config.meta {
            meta.register(config.id, addr);
        }

        let accept_thread = {
            let stop = Arc::clone(&stop);
            let conns = Arc::clone(&conns);
            let meta = config.meta.clone();
            let read_timeout = config.read_timeout;
            let model = ServiceModel {
                delay: config.request_delay,
                rate: config.service_rate,
                unit: Arc::new(Mutex::new(())),
            };
            let node_id = config.id;
            std::thread::Builder::new()
                .name(format!("datanode-{node_id}-accept"))
                .spawn(move || {
                    let mut workers: Vec<JoinHandle<()>> = Vec::new();
                    for incoming in listener.incoming() {
                        if stop.load(Ordering::SeqCst) {
                            break;
                        }
                        let Ok(stream) = incoming else { continue };
                        let _ = stream.set_read_timeout(Some(read_timeout));
                        let _ = stream.set_nodelay(true);
                        if let Ok(clone) = stream.try_clone() {
                            conns.lock().expect("conn list lock").push(clone);
                        }
                        let store = Arc::clone(&store);
                        let model = model.clone();
                        let meta = meta.clone();
                        let handle = std::thread::Builder::new()
                            .name(format!("datanode-{node_id}-conn"))
                            .spawn(move || {
                                serve_connection(stream, &store, &model, meta.as_deref());
                            })
                            .expect("spawn connection worker");
                        workers.push(handle);
                        // Reap finished workers so long-lived nodes don't
                        // accumulate handles.
                        workers.retain(|w| !w.is_finished());
                    }
                    for w in workers {
                        let _ = w.join();
                    }
                })
                .expect("spawn accept thread")
        };

        let heartbeat_thread = config.meta.as_ref().map(|meta| {
            let meta = Arc::clone(meta);
            let stop = Arc::clone(&stop);
            let every = config.heartbeat_every;
            let node_id = config.id;
            std::thread::Builder::new()
                .name(format!("datanode-{node_id}-heartbeat"))
                .spawn(move || {
                    while !stop.load(Ordering::SeqCst) {
                        meta.heartbeat(node_id);
                        std::thread::sleep(every);
                    }
                })
                .expect("spawn heartbeat thread")
        });

        Ok(DataNode {
            id: config.id,
            addr,
            stop,
            accept_thread: Some(accept_thread),
            heartbeat_thread: Some(heartbeat_thread).flatten(),
            conns,
        })
    }

    /// The node's id.
    pub fn id(&self) -> usize {
        self.id
    }

    /// The address the node is serving on.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Graceful shutdown: stops accepting, unblocks and closes every open
    /// connection, and joins all threads.
    pub fn shutdown(mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // Unblock the accept loop with a throwaway connection to self.
        let _ = TcpStream::connect_timeout(&self.addr, Duration::from_secs(1));
        // Unblock connection workers parked in read().
        for conn in self.conns.lock().expect("conn list lock").drain(..) {
            let _ = conn.shutdown(Shutdown::Both);
        }
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
        if let Some(t) = self.heartbeat_thread.take() {
            let _ = t.join();
        }
    }
}

/// Per-connection request loop.
fn serve_connection(
    mut stream: TcpStream,
    store: &BlockStore,
    model: &ServiceModel,
    meta: Option<&MetaRouter>,
) {
    loop {
        let (request, rx_bytes, wire_trace) = match protocol::read_request_traced(&mut stream) {
            Ok(Some(triple)) => triple,
            // Clean EOF: the client is done with this connection.
            Ok(None) => return,
            Err(ClusterError::Io(_)) => return, // timeout, reset, shutdown
            Err(e) => {
                // A malformed frame: answer once, then drop the connection
                // (framing may be out of sync).
                let _ = protocol::write_response(&mut stream, &Response::Error(e.to_string()));
                return;
            }
        };
        // Queue wait starts when the frame has fully arrived and ends when
        // service begins. Without a rate it is the artificial request
        // delay; with one it is the wait for the node's single service
        // unit, i.e. the time spent behind other requests' bytes.
        let queued_at = std::time::Instant::now();
        let service_unit = model
            .rate
            .map(|_| model.unit.lock().expect("service unit lock"));
        if model.rate.is_none() && !model.delay.is_zero() {
            std::thread::sleep(model.delay);
        }
        // Adopt the client's trace (or open a local root for untraced
        // peers): this request span and its queue/service children carry
        // the client's TraceId, which is what lets a slow get_file be
        // attributed to a specific node's queue or service time.
        let ctx = telemetry::trace::TraceCtx::adopt(wire_trace.map(|t| (t.trace, t.span)));
        let req_span = ctx.child("cluster.node.request_us");
        req_span
            .ctx()
            .span_with("cluster.node.queue_us", queued_at.elapsed());
        let response = {
            let _service = req_span.ctx().child("cluster.node.service_us");
            if model.rate.is_some() && !model.delay.is_zero() {
                std::thread::sleep(model.delay);
            }
            let response = handle(store, request, meta);
            if let Some(rate) = model.rate {
                // Hold the service unit for the bytes this request moved
                // through the node, in and out.
                let bytes = rx_bytes as u64 + response_payload_bytes(&response);
                std::thread::sleep(Duration::from_secs_f64(bytes as f64 / rate as f64));
            }
            response
        };
        drop(service_unit);
        NODE_REQUESTS.inc();
        NODE_RX.add(rx_bytes as u64);
        if matches!(response, Response::Error(_)) {
            NODE_ERRORS.inc();
        }
        match protocol::write_response(&mut stream, &response) {
            Ok(tx_bytes) => {
                NODE_TX.add(tx_bytes as u64);
            }
            Err(_) => return,
        }
    }
}

/// Executes one request against the local store.
fn handle(store: &BlockStore, request: Request, meta: Option<&MetaRouter>) -> Response {
    let fail = |e: ClusterError| Response::Error(e.to_string());
    match request {
        Request::Ping => Response::Pong,
        Request::PutBlock { id, data } => match store.put(&id, &data) {
            Ok(()) => Response::Done,
            Err(e) => fail(e),
        },
        Request::GetBlock { id } => match store.get(&id) {
            Ok(Some(data)) => Response::Data(data),
            Ok(None) => Response::Error(format!("block {id:?} not found")),
            Err(e) => fail(e),
        },
        Request::GetUnits { id, sub, units } => {
            let block = match store.get(&id) {
                Ok(Some(b)) => b,
                Ok(None) => return Response::Error(format!("block {id:?} not found")),
                Err(e) => return fail(e),
            };
            let sub = sub as usize;
            if sub == 0 || block.len() % sub != 0 {
                return Response::Error(format!(
                    "block of {} bytes not divisible into sub={sub} units",
                    block.len()
                ));
            }
            let w = block.len() / sub;
            let mut out = Vec::with_capacity(units.len() * w);
            for u in units {
                let u = u as usize;
                out.extend_from_slice(&block[u * w..(u + 1) * w]);
            }
            Response::Data(out)
        }
        Request::RepairRead {
            id,
            rows,
            cols,
            coeffs,
        } => {
            let block = match store.get(&id) {
                Ok(Some(b)) => b,
                Ok(None) => return Response::Error(format!("block {id:?} not found")),
                Err(e) => return fail(e),
            };
            let (rows, cols) = (rows as usize, cols as usize);
            let task = HelperTask {
                node: 0, // the role index is irrelevant on the helper side
                coeffs: Matrix::from_fn(rows, cols, |r, c| Gf256::new(coeffs[r * cols + c])),
            };
            match task.run(&block) {
                Ok(payload) => Response::Data(payload),
                Err(e) => Response::Error(e.to_string()),
            }
        }
        Request::Stat { id } => match store.stat(&id) {
            Ok(Some((len, crc))) => {
                let mut out = Vec::with_capacity(8);
                out.extend_from_slice(&len.to_le_bytes());
                out.extend_from_slice(&crc.to_le_bytes());
                Response::Data(out)
            }
            Ok(None) => Response::Error(format!("block {id:?} not found")),
            Err(e) => fail(e),
        },
        // The node's full registry over the wire. All nodes of the
        // loopback harness share one process (and thus one registry);
        // real deployments get per-process scrapes.
        Request::Stats => Response::Data(protocol::encode_stats(
            &telemetry::Registry::global().snapshot(),
        )),
        // The write-path dual of RepairRead: fold the shipped message
        // deltas into the stored block with the shipped per-unit
        // coefficients. The node needs no knowledge of the code — data
        // and parity blocks are updated by the same local computation.
        Request::WriteDelta {
            id,
            unit_bytes,
            deltas,
            rows,
        } => {
            let mut block = match store.get(&id) {
                Ok(Some(b)) => b,
                Ok(None) => return Response::Error(format!("block {id:?} not found")),
                Err(e) => return fail(e),
            };
            let rows: Vec<(usize, Vec<Gf256>)> = rows
                .into_iter()
                .map(|(unit, coeffs)| (unit as usize, coeffs.into_iter().map(Gf256::new).collect()))
                .collect();
            if let Err(e) =
                erasure::apply_block_delta(&mut block, unit_bytes as usize, &rows, &deltas)
            {
                return Response::Error(e.to_string());
            }
            match store.put(&id, &block) {
                Ok(()) => Response::Done,
                Err(e) => fail(e),
            }
        }
        // Idempotent block reclamation: Done whether or not the block was
        // present, so a delete fan-out can be retried safely.
        Request::DeleteBlock { id } => match store.delete(&id) {
            Ok(_existed) => Response::Done,
            Err(e) => fail(e),
        },
        // A file's manifest, routed to its owning shard and stamped with
        // that shard's epoch so the caller can cache it.
        Request::ManifestGet { name } => match meta {
            None => Response::Error("node serves no metadata".into()),
            Some(meta) => {
                let (epoch, fp) = meta.file_with_epoch(&name);
                match fp {
                    Some(fp) => Response::Data(protocol::encode_manifest(epoch, &fp)),
                    None => Response::Error(format!("unknown file {name:?}")),
                }
            }
        },
    }
}

/// Payload bytes a response puts on the wire, for the service-rate model.
fn response_payload_bytes(response: &Response) -> u64 {
    match response {
        Response::Data(data) => data.len() as u64,
        Response::Error(message) => message.len() as u64,
        _ => 0,
    }
}

/// Runs a datanode in the foreground until the process is killed — the
/// body of `carousel-tool serve`. Prints the bound address to stdout so
/// wrappers can discover an ephemeral port.
///
/// # Errors
///
/// Propagates bind failures.
pub fn serve_forever(bind_addr: &str, config: DataNodeConfig) -> Result<(), ClusterError> {
    let node = DataNode::spawn(bind_addr, config)?;
    // Write + flush explicitly: wrappers parse this line through a pipe,
    // where stdout is block-buffered and a plain println! would sit in
    // the buffer forever.
    {
        use std::io::Write as _;
        let mut out = io::stdout().lock();
        writeln!(out, "datanode {} listening on {}", node.id(), node.addr())?;
        out.flush()?;
    }
    loop {
        std::thread::sleep(Duration::from_secs(3600));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::BlockId;

    fn temp_root(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("cluster-datanode-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn call(addr: SocketAddr, req: &Request) -> Response {
        let mut stream = TcpStream::connect(addr).unwrap();
        protocol::write_request(&mut stream, req).unwrap();
        protocol::read_response(&mut stream).unwrap().unwrap().0
    }

    fn id(file: &str, stripe: u32, block: u32) -> BlockId {
        BlockId {
            file: file.into(),
            stripe,
            block,
        }
    }

    #[test]
    fn serves_put_get_units_stat_over_tcp() {
        let node =
            DataNode::spawn("127.0.0.1:0", DataNodeConfig::new(0, temp_root("basic"))).unwrap();
        let addr = node.addr();
        assert_eq!(call(addr, &Request::Ping), Response::Pong);

        let block: Vec<u8> = (0..120).map(|i| (i * 3 + 1) as u8).collect();
        let a = id("f", 0, 2);
        assert_eq!(
            call(
                addr,
                &Request::PutBlock {
                    id: a.clone(),
                    data: block.clone()
                }
            ),
            Response::Done
        );
        assert_eq!(
            call(addr, &Request::GetBlock { id: a.clone() }),
            Response::Data(block.clone())
        );
        // Units 0 and 2 of sub=3: w = 40.
        match call(
            addr,
            &Request::GetUnits {
                id: a.clone(),
                sub: 3,
                units: vec![0, 2],
            },
        ) {
            Response::Data(units) => {
                assert_eq!(&units[..40], &block[..40]);
                assert_eq!(&units[40..], &block[80..]);
            }
            other => panic!("expected data, got {other:?}"),
        }
        match call(addr, &Request::Stat { id: a }) {
            Response::Data(stat) => {
                assert_eq!(stat.len(), 8);
                assert_eq!(u32::from_le_bytes(stat[..4].try_into().unwrap()), 120);
            }
            other => panic!("expected stat data, got {other:?}"),
        }
        // Absent blocks are errors, not hangs.
        assert!(matches!(
            call(addr, &Request::GetBlock { id: id("f", 9, 9) }),
            Response::Error(_)
        ));
        node.shutdown();
    }

    #[test]
    fn repair_read_compresses_on_the_node() {
        let node =
            DataNode::spawn("127.0.0.1:0", DataNodeConfig::new(1, temp_root("repair"))).unwrap();
        let addr = node.addr();
        let block: Vec<u8> = (0..60).map(|i| (i * 7 + 5) as u8).collect();
        let a = id("r", 0, 0);
        call(
            addr,
            &Request::PutBlock {
                id: a.clone(),
                data: block.clone(),
            },
        );
        // A 1x3 matrix: the response is one unit (20 bytes), not the block.
        let coeffs = vec![1u8, 2, 3];
        let resp = call(
            addr,
            &Request::RepairRead {
                id: a,
                rows: 1,
                cols: 3,
                coeffs: coeffs.clone(),
            },
        );
        let expect = HelperTask {
            node: 0,
            coeffs: Matrix::from_fn(1, 3, |_, c| Gf256::new(coeffs[c])),
        }
        .run(&block)
        .unwrap();
        assert_eq!(resp, Response::Data(expect));
        node.shutdown();
    }

    #[test]
    fn write_delta_and_delete_over_tcp() {
        let node =
            DataNode::spawn("127.0.0.1:0", DataNodeConfig::new(3, temp_root("delta"))).unwrap();
        let addr = node.addr();
        let block: Vec<u8> = (0..24).map(|i| (i * 5 + 2) as u8).collect();
        let a = id("m", 0, 1);
        call(
            addr,
            &Request::PutBlock {
                id: a.clone(),
                data: block.clone(),
            },
        );
        // Two deltas of unit width 8, folded into local units 0 and 2
        // with per-delta coefficients.
        let d0 = [0x11u8; 8];
        let d1 = [0x02u8; 8];
        let resp = call(
            addr,
            &Request::WriteDelta {
                id: a.clone(),
                unit_bytes: 8,
                deltas: vec![d0.to_vec(), d1.to_vec()],
                rows: vec![(0, vec![1, 0]), (2, vec![3, 2])],
            },
        );
        assert_eq!(resp, Response::Done);
        let mut expect = block.clone();
        for i in 0..8 {
            expect[i] ^= d0[i]; // 1·d0 ⊕ 0·d1
            expect[16 + i] ^=
                (Gf256::new(3) * Gf256::new(d0[i]) + Gf256::new(2) * Gf256::new(d1[i])).value();
        }
        assert_eq!(
            call(addr, &Request::GetBlock { id: a.clone() }),
            Response::Data(expect)
        );
        // Bad geometry is rejected without touching the block.
        assert!(matches!(
            call(
                addr,
                &Request::WriteDelta {
                    id: a.clone(),
                    unit_bytes: 7,
                    deltas: vec![vec![0u8; 7]],
                    rows: vec![(0, vec![1])],
                }
            ),
            Response::Error(_)
        ));
        // Delete reclaims the block and is idempotent.
        assert_eq!(
            call(addr, &Request::DeleteBlock { id: a.clone() }),
            Response::Done
        );
        assert!(matches!(
            call(addr, &Request::GetBlock { id: a.clone() }),
            Response::Error(_)
        ));
        assert_eq!(call(addr, &Request::DeleteBlock { id: a }), Response::Done);
        node.shutdown();
    }

    #[test]
    fn graceful_shutdown_closes_connections() {
        let node =
            DataNode::spawn("127.0.0.1:0", DataNodeConfig::new(2, temp_root("stop"))).unwrap();
        let addr = node.addr();
        let mut idle = TcpStream::connect(addr).unwrap();
        node.shutdown();
        // The held connection was shut down; a request on it fails or EOFs.
        let r = protocol::write_request(&mut idle, &Request::Ping)
            .and_then(|_| protocol::read_response(&mut idle));
        assert!(matches!(r, Err(_) | Ok(None)));
        // And the port no longer accepts.
        assert!(TcpStream::connect_timeout(&addr, Duration::from_millis(500)).is_err());
    }
}
