//! Sim-as-a-service: a verbs-shaped front door over one warm fabric.
//!
//! The batch binaries rebuild a topology per invocation; this module
//! keeps a single simulated cluster alive behind a small verbs-like
//! API — `create_qp`, `post_send`, `poll_cq`, `query_fabric`,
//! `snapshot`/`restore` — so external clients can multiplex many
//! experiments over one warm k=16 fat tree without per-run
//! construction cost (ROADMAP open item 2; the host-facing contract
//! REPS-style transports and in-network-compute stacks assume).
//!
//! ## Batching model
//!
//! The service holds the crate's one run substrate (`session::Session`,
//! DESIGN.md "Run substrate"), the same one [`crate::load`] and the
//! batch runners drive, so sharded and serial service runs stay
//! bit-identical. The engine only advances inside the `advance` op: one
//! substrate step — a single engine run to the new window boundary,
//! however many windows it spans, followed by a drain of the switch
//! drop logs, so neither a huge `windows` nor a long-lived lossy fabric
//! can grow the service's latency or memory without bound. Every
//! mutating op therefore lands **at a window boundary** while the
//! engine is idle: `create_qp` provisions NIC state directly,
//! `post_send` posts work that starts at the current boundary.
//! Concurrent clients are serialized by the service lock; the resulting
//! op order is recorded in a journal.
//!
//! ## Snapshot / restore
//!
//! A snapshot is **not** a dump of engine internals — it is the service
//! config plus the op journal (`themis-service-snapshot` v1, JSON).
//! Because the simulator is deterministic, replaying the journal
//! against a freshly built cluster reconstructs the exact engine, QP
//! and telemetry state: a restored service continues with telemetry
//! byte-identical to one that never stopped. This keeps checkpoints
//! small, versionable and diffable.
//!
//! ## Wire protocol
//!
//! Length-prefixed JSON over a Unix or TCP socket: each direction sends
//! a 4-byte big-endian payload length followed by one JSON document.
//! Requests are objects with an `"op"` field; responses carry
//! `"ok": true` plus op-specific fields, or `"ok": false` with an
//! `"error"` message. See [`SimService::handle`] for the op table.

use crate::cluster::{assemble, check_shards, Topology};
use crate::experiment::driver_of;
use crate::json::{self, Encoder, Json, Layout};
use crate::load::InvalidConfig;
use crate::scheme::Scheme;
use crate::session::{Session, Start};
use collectives::driver::single_transfer_spec;
use netsim::fat_tree::FatTreeConfig;
use netsim::types::{HostId, QpId};
use rnic::NicConfig;
use simcore::time::{Nanos, TimeDelta};
use std::io::{self, BufReader, ErrorKind, Read, Write};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Largest accepted frame payload (a defensive cap, far above any
/// legitimate request or telemetry document).
pub const MAX_FRAME_BYTES: u32 = 64 << 20;

/// Snapshot format identifier.
pub const SNAPSHOT_KIND: &str = "themis-service-snapshot";
/// Snapshot format version.
pub const SNAPSHOT_VERSION: i64 = 1;

/// Static configuration of one service instance — everything needed to
/// rebuild its fabric deterministically (and thus everything a
/// snapshot must carry besides the journal).
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Fat-tree radix (4, 8, 16, 32).
    pub k: usize,
    /// Scheme the fabric runs.
    pub scheme: Scheme,
    /// Root seed (drives QP entropy).
    pub seed: u64,
    /// Engine shards (1 = serial; any value is bit-identical).
    pub shards: usize,
    /// Batching window width: the `advance` op moves simulated time in
    /// multiples of this.
    pub window: TimeDelta,
}

impl ServiceConfig {
    /// CI-sized default: k=4 (16 hosts), Themis, 500 µs windows.
    pub fn small() -> ServiceConfig {
        ServiceConfig {
            k: 4,
            scheme: Scheme::Themis,
            seed: 1,
            shards: 1,
            window: TimeDelta::from_micros(500),
        }
    }

    /// Reject an invalid fabric ([`assemble`]'s rule) and degenerate
    /// knob combinations (`--window-us 0`, more shards than hosts) with
    /// a usage error instead of a downstream panic.
    pub fn validate(&self) -> Result<(), InvalidConfig> {
        let fabric = FatTreeConfig::small(self.k);
        let nic = NicConfig::nic_sr(FatTreeConfig::LINK.bandwidth_bps);
        Topology::FatTree(&fabric).check(&nic, self.scheme)?;
        self.check_knobs(&fabric)
    }

    /// The non-fabric half of [`ServiceConfig::validate`].
    fn check_knobs(&self, fabric: &FatTreeConfig) -> Result<(), InvalidConfig> {
        if self.window.as_nanos() == 0 {
            let msg = "--window-us must be > 0 (the advance op moves time by it)";
            return Err(InvalidConfig(msg.into()));
        }
        Ok(check_shards(self.shards, fabric.n_hosts())?)
    }

    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("k", Json::Int(self.k as i64)),
            ("scheme", Json::str(self.scheme.cli_name())),
            ("seed", Json::Int(self.seed as i64)),
            ("shards", Json::Int(self.shards as i64)),
            ("window_ns", Json::Int(self.window.as_nanos() as i64)),
        ])
    }

    fn from_json(v: &Json) -> Result<ServiceConfig, String> {
        let scheme_name = str_field(v, "scheme")?;
        Ok(ServiceConfig {
            k: num_field(v, "k")? as usize,
            scheme: Scheme::parse(scheme_name)
                .ok_or_else(|| format!("unknown scheme {scheme_name:?}"))?,
            seed: num_field(v, "seed")?,
            shards: num_field(v, "shards")? as usize,
            window: TimeDelta::from_nanos(num_field(v, "window_ns")?),
        })
    }
}

/// One replayable mutating op. The journal (ordered list of these) plus
/// [`ServiceConfig`] *is* the checkpoint: replay reconstructs the
/// engine bit for bit.
#[derive(Debug, Clone, PartialEq, Eq)]
enum JournalOp {
    CreateQp { client: String, src: u32, dst: u32 },
    PostSend { client: String, qp: u32, bytes: u64 },
    Advance { windows: u64 },
}

impl JournalOp {
    fn to_json(&self) -> Json {
        match self {
            JournalOp::CreateQp { client, src, dst } => Json::obj(vec![
                ("op", Json::str("create_qp")),
                ("client", Json::str(client)),
                ("src", Json::Int(*src as i64)),
                ("dst", Json::Int(*dst as i64)),
            ]),
            JournalOp::PostSend { client, qp, bytes } => Json::obj(vec![
                ("op", Json::str("post_send")),
                ("client", Json::str(client)),
                ("qp", Json::Int(*qp as i64)),
                ("bytes", Json::Int(*bytes as i64)),
            ]),
            JournalOp::Advance { windows } => Json::obj(vec![
                ("op", Json::str("advance")),
                ("windows", Json::Int(*windows as i64)),
            ]),
        }
    }

    /// The one decoder of a mutating op: a wire request and its journal
    /// entry are the same JSON object.
    fn from_json(v: &Json) -> Result<JournalOp, String> {
        match str_field(v, "op")? {
            "create_qp" => Ok(JournalOp::CreateQp {
                client: str_field(v, "client")?.to_string(),
                src: u32_field(v, "src")?,
                dst: u32_field(v, "dst")?,
            }),
            "post_send" => Ok(JournalOp::PostSend {
                client: str_field(v, "client")?.to_string(),
                qp: u32_field(v, "qp")?,
                bytes: num_field(v, "bytes")?,
            }),
            "advance" => Ok(JournalOp::Advance {
                windows: num_field(v, "windows")?,
            }),
            other => Err(format!("unknown journal op {other:?}")),
        }
    }
}

/// The one field decoder under requests, journal entries and the
/// snapshot's config object.
fn str_field<'a>(v: &'a Json, key: &str) -> Result<&'a str, String> {
    v.get(key)
        .and_then(Json::as_str)
        .ok_or_else(|| format!("request needs a string \"{key}\" field"))
}

fn num_field(v: &Json, key: &str) -> Result<u64, String> {
    v.get(key)
        .and_then(Json::as_u64)
        .ok_or_else(|| format!("request needs a non-negative \"{key}\" field"))
}

/// An id field: refused past `u32`, never truncated onto a smaller id.
fn u32_field(v: &Json, key: &str) -> Result<u32, String> {
    u32::try_from(num_field(v, key)?).map_err(|_| format!("\"{key}\" is out of range"))
}

/// A client-visible QP record.
#[derive(Debug, Clone)]
struct QpRecord {
    qp: QpId,
    sport: u16,
    client: String,
    src: HostId,
    dst: HostId,
}

/// A posted work request: `wr` is the driver instance index.
#[derive(Debug, Clone)]
struct WorkRecord {
    wr: usize,
    client: String,
    qp: QpId,
}

/// The service state machine: one warm cluster plus the verbs front
/// door over it. Wrap in a `Mutex` to share between connection threads
/// (see [`serve`]); ops are serialized, so the journal order is the
/// canonical op order.
pub struct SimService {
    cfg: ServiceConfig,
    /// The warm cluster behind the run substrate; every `advance` is one
    /// `Session::step`.
    session: Session,
    journal: Vec<JournalOp>,
    qps: Vec<QpRecord>,
    work: Vec<WorkRecord>,
}

impl SimService {
    /// Build a warm fabric for `cfg`, rejecting everything
    /// [`ServiceConfig::validate`] rejects.
    pub fn new(cfg: ServiceConfig) -> Result<SimService, InvalidConfig> {
        let fabric = FatTreeConfig::small(cfg.k);
        cfg.check_knobs(&fabric)?;
        let nic = NicConfig::nic_sr(FatTreeConfig::LINK.bandwidth_bps);
        let cluster = assemble(Topology::FatTree(&fabric), nic, cfg.scheme, cfg.shards)?;
        Ok(SimService {
            session: Session::new(cluster, cfg.seed ^ 0x5E21_ACE5, cfg.window).with_msg_latency(),
            cfg,
            journal: Vec::new(),
            qps: Vec::new(),
            work: Vec::new(),
        })
    }

    /// Rebuild a service from a snapshot document: parse the config,
    /// decode the journal, build a fresh fabric and replay. Deterministic
    /// replay makes the result bit-identical to the checkpointed
    /// instance — including its telemetry.
    pub fn from_snapshot(text: &str) -> Result<SimService, String> {
        let doc = json::parse(text).map_err(|e| format!("snapshot: {e}"))?;
        if doc.get("kind").and_then(Json::as_str) != Some(SNAPSHOT_KIND) {
            return Err(format!("snapshot: kind must be {SNAPSHOT_KIND:?}"));
        }
        if doc.get("v").and_then(Json::as_i64) != Some(SNAPSHOT_VERSION) {
            return Err(format!(
                "snapshot: unsupported version (want {SNAPSHOT_VERSION})"
            ));
        }
        let cfg = ServiceConfig::from_json(doc.get("config").ok_or("snapshot: config missing")?)
            .map_err(|e| format!("snapshot: config: {e}"))?;
        let journal = doc
            .get("journal")
            .and_then(Json::as_arr)
            .ok_or("snapshot: journal missing")?;
        // Decode up to the first malformed entry and drop the parsed tree
        // before the fabric is built, so restore never holds both. The
        // errors keep journal order: an op that fails to apply before the
        // malformed entry is the one reported.
        let mut ops = Vec::with_capacity(journal.len());
        let mut malformed = None;
        for entry in journal {
            match JournalOp::from_json(entry) {
                Ok(op) => ops.push(op),
                Err(e) => {
                    malformed = Some(e);
                    break;
                }
            }
        }
        drop(doc);
        let mut svc = SimService::new(cfg).map_err(|e| e.to_string())?;
        for op in ops {
            svc.apply(op)?;
        }
        match malformed {
            Some(e) => Err(e),
            None => Ok(svc),
        }
    }

    /// Serialize the checkpoint: config + journal, as a compact JSON
    /// document (stable field order, so identical histories produce
    /// identical bytes). The journal is written one op at a time.
    pub fn snapshot(&self) -> String {
        let mut out = String::new();
        let mut enc = Encoder::compact(&mut out);
        enc.obj(Layout::Inline)
            .key("kind")
            .str(SNAPSHOT_KIND)
            .key("v")
            .i64(SNAPSHOT_VERSION)
            .key("config")
            .json(&self.cfg.to_json())
            .key("journal")
            .arr(Layout::Inline);
        for op in &self.journal {
            enc.json(&op.to_json());
        }
        enc.close().close();
        out
    }

    /// Current simulated window boundary (the end of the last window an
    /// `advance` completed).
    pub fn boundary(&self) -> Nanos {
        self.session.boundary()
    }

    /// Execute one mutating op and append it to the journal. Both the
    /// live request path and snapshot replay run through here, so the
    /// two can never diverge.
    fn apply(&mut self, op: JournalOp) -> Result<Json, String> {
        let reply = match &op {
            JournalOp::CreateQp { client, src, dst } => {
                let n_hosts = self.session.cluster.hosts.len() as u32;
                if *src >= n_hosts || *dst >= n_hosts {
                    return Err(format!(
                        "create_qp: hosts {src}->{dst} out of range (fabric has {n_hosts})"
                    ));
                }
                if src == dst {
                    return Err("create_qp: src and dst must differ".into());
                }
                let (qp, sport) = self.session.create_qp(HostId(*src), HostId(*dst));
                self.qps.push(QpRecord {
                    qp,
                    sport,
                    client: client.clone(),
                    src: HostId(*src),
                    dst: HostId(*dst),
                });
                Json::obj(vec![
                    ("ok", Json::Bool(true)),
                    ("qp", Json::Int(qp.0 as i64)),
                    ("sport", Json::Int(sport as i64)),
                ])
            }
            JournalOp::PostSend { client, qp, bytes } => {
                let rec = self
                    .qps
                    .iter()
                    .find(|r| r.qp.0 == *qp)
                    .ok_or_else(|| format!("post_send: unknown qp {qp}"))?
                    .clone();
                if rec.client != *client {
                    return Err(format!(
                        "post_send: qp {qp} belongs to client {:?}, not {:?}",
                        rec.client, client
                    ));
                }
                if *bytes == 0 {
                    return Err("post_send: bytes must be > 0".into());
                }
                let spec = single_transfer_spec(rec.src, rec.dst, rec.qp, *bytes);
                // The transfer starts at the current window boundary —
                // i.e. at the beginning of the next `advance` — never
                // mid-window, which is what keeps concurrent clients'
                // interleavings deterministic.
                let start = Start::At(self.session.boundary());
                let idx = self.session.post_spec(spec, start);
                self.work.push(WorkRecord {
                    wr: idx,
                    client: client.clone(),
                    qp: rec.qp,
                });
                Json::obj(vec![
                    ("ok", Json::Bool(true)),
                    ("wr", Json::Int(idx as i64)),
                ])
            }
            JournalOp::Advance { windows } => {
                if *windows == 0 {
                    return Err("advance: windows must be >= 1".into());
                }
                self.session
                    .step(*windows)
                    .ok_or("advance: the boundary must fit in u64 nanoseconds")?;
                Json::obj(vec![
                    ("ok", Json::Bool(true)),
                    ("window", Json::Int(self.session.windows_done() as i64)),
                    ("now_ns", Json::Int(self.now_ns())),
                ])
            }
        };
        self.journal.push(op);
        Ok(reply)
    }

    /// Completions for `client` with `wr >= since`, oldest first.
    /// Read-only (poll again with a higher `since` to page): the reap
    /// cursor lives client-side so polling never perturbs the journal.
    /// `work` is in `wr` order, so a poll starts at `since`: its cost
    /// follows the page, not the service's whole history.
    fn poll_cq(&self, client: &str, since: u64) -> Json {
        let driver = driver_of(&self.session.cluster);
        let first = self.work.partition_point(|w| (w.wr as u64) < since);
        let completions: Vec<Json> = self.work[first..]
            .iter()
            .filter(|w| w.client == client)
            .filter_map(|w| {
                let fct = driver.fct_of(w.wr)?;
                let start = driver.start_of(w.wr)?;
                Some(Json::obj(vec![
                    ("wr", Json::Int(w.wr as i64)),
                    ("qp", Json::Int(w.qp.0 as i64)),
                    ("start_ns", Json::Int(start.as_nanos() as i64)),
                    ("fct_ns", Json::Int(fct.as_nanos() as i64)),
                ]))
            })
            .collect();
        Json::obj(vec![
            ("ok", Json::Bool(true)),
            ("completions", Json::Arr(completions)),
        ])
    }

    fn now_ns(&self) -> i64 {
        self.session.cluster.world.now().as_nanos() as i64
    }

    fn query_fabric(&self) -> Json {
        let cluster = &self.session.cluster;
        Json::obj(vec![
            ("ok", Json::Bool(true)),
            ("k", Json::Int(self.cfg.k as i64)),
            ("hosts", Json::Int(cluster.hosts.len() as i64)),
            ("leaves", Json::Int(cluster.leaves.len() as i64)),
            ("spines", Json::Int(cluster.spines.len() as i64)),
            ("n_paths", Json::Int(cluster.n_paths as i64)),
            ("scheme", Json::str(self.cfg.scheme.cli_name())),
            ("shards", Json::Int(self.cfg.shards as i64)),
            ("window_ns", Json::Int(self.cfg.window.as_nanos() as i64)),
            ("window", Json::Int(self.session.windows_done() as i64)),
            ("now_ns", Json::Int(self.now_ns())),
            ("qps", Json::Int(self.qps.len() as i64)),
            ("posted", Json::Int(self.work.len() as i64)),
        ])
    }

    /// The QP table (optionally restricted to one client): the handles
    /// a reconnecting client needs to resume driving its flows.
    fn list_qps(&self, scope: Option<&str>) -> Json {
        let qps: Vec<Json> = self
            .qps
            .iter()
            .filter(|r| scope.is_none_or(|c| r.client == c))
            .map(|r| {
                Json::obj(vec![
                    ("qp", Json::Int(r.qp.0 as i64)),
                    ("client", Json::str(&r.client)),
                    ("src", Json::Int(r.src.0 as i64)),
                    ("dst", Json::Int(r.dst.0 as i64)),
                    ("sport", Json::Int(r.sport as i64)),
                ])
            })
            .collect();
        Json::obj(vec![("ok", Json::Bool(true)), ("qps", Json::Arr(qps))])
    }

    fn query_qp(&self, qp: u32) -> Result<Json, String> {
        let rec = self
            .qps
            .iter()
            .find(|r| r.qp.0 == qp)
            .ok_or_else(|| format!("query_qp: unknown qp {qp}"))?;
        let cluster = &self.session.cluster;
        if rec.src.index() >= cluster.hosts.len() {
            return Err("query_qp: sender NIC missing".into());
        }
        let d = cluster
            .nic(rec.src)
            .describe_send_qp(rec.qp)
            .ok_or_else(|| format!("query_qp: qp {qp} has no sender half on host {}", rec.src.0))?;
        Ok(Json::obj(vec![
            ("ok", Json::Bool(true)),
            ("qp", Json::Int(d.qp.0 as i64)),
            ("src", Json::Int(d.src.0 as i64)),
            ("dst", Json::Int(d.dst.0 as i64)),
            ("sport", Json::Int(d.sport as i64)),
            ("snd_una", Json::Int(d.snd_una as i64)),
            ("snd_nxt", Json::Int(d.snd_nxt as i64)),
            ("retx_pending", Json::Int(d.retx_pending as i64)),
            ("busy", Json::Bool(d.busy)),
        ]))
    }

    /// The merged telemetry document (`themis-telemetry` v1 text).
    /// `scope` prefixes every metric name (`<scope>.`) — per-client
    /// views of the shared fabric stay distinguishable downstream.
    /// Appends deterministic `service.*` counters derived from the
    /// journal, so restored-vs-continuous comparisons cover the service
    /// layer too.
    pub fn telemetry_json(&self, scope: Option<&str>) -> String {
        let mut run = self.session.cluster.snapshot_merged();
        run.push_counter("service.window", self.session.windows_done());
        run.push_counter("service.qps", self.qps.len() as u64);
        run.push_counter("service.posted", self.work.len() as u64);
        run.push_counter("service.journal_ops", self.journal.len() as u64);
        run.sort();
        if let Some(prefix) = scope {
            run = run.scoped(prefix);
        }
        let mut report = telemetry::Report::new();
        report.add_run("service", run);
        report.to_json()
    }

    /// Dispatch one protocol request. Op table:
    ///
    /// | op | fields | reply |
    /// |----|--------|-------|
    /// | `create_qp` | `client, src, dst` | `qp, sport` |
    /// | `post_send` | `client, qp, bytes` | `wr` |
    /// | `advance` | `windows` | `window, now_ns` |
    /// | `poll_cq` | `client[, since]` | `completions[]` |
    /// | `query_fabric` | — | topology + clock |
    /// | `list_qps` | `[client]` | QP table |
    /// | `query_qp` | `qp` | QP descriptor |
    /// | `telemetry` | `[client][, path]` | document or file write |
    /// | `snapshot` | `[path]` | document or file write |
    /// | `shutdown` | — | `ok` (server closes after replying) |
    ///
    /// Malformed requests yield `{"ok":false,"error":...}` — the
    /// service never panics on client input — and so does an `advance`
    /// whose boundary would not fit in `u64` nanoseconds.
    pub fn handle(&mut self, req: &Json) -> Json {
        match self.dispatch(req) {
            Ok(reply) => reply,
            Err(msg) => error_reply(&msg),
        }
    }

    fn dispatch(&mut self, req: &Json) -> Result<Json, String> {
        match str_field(req, "op")? {
            "create_qp" | "post_send" | "advance" => self.apply(JournalOp::from_json(req)?),
            "poll_cq" => {
                let since = req.get("since").and_then(Json::as_u64).unwrap_or(0);
                Ok(self.poll_cq(str_field(req, "client")?, since))
            }
            "query_fabric" => Ok(self.query_fabric()),
            "list_qps" => Ok(self.list_qps(req.get("client").and_then(Json::as_str))),
            "query_qp" => self.query_qp(u32_field(req, "qp")?),
            "telemetry" => {
                let scope = req.get("client").and_then(Json::as_str);
                let doc = self.telemetry_json(scope);
                self.reply_doc(req, "telemetry", doc)
            }
            "snapshot" => {
                let doc = self.snapshot();
                self.reply_doc(req, "snapshot", doc)
            }
            "shutdown" => Ok(Json::obj(vec![("ok", Json::Bool(true))])),
            other => Err(format!("unknown op {other:?}")),
        }
    }

    /// Return `doc` inline, or — when the request carries a `path` —
    /// write it server-side and return the byte count (the scripted CI
    /// client diffs files with `cmp`).
    fn reply_doc(&self, req: &Json, field: &str, doc: String) -> Result<Json, String> {
        if let Some(path) = req.get("path").and_then(Json::as_str) {
            std::fs::write(path, doc.as_bytes())
                .map_err(|e| format!("{field}: cannot write {path}: {e}"))?;
            Ok(Json::obj(vec![
                ("ok", Json::Bool(true)),
                ("path", Json::str(path)),
                ("bytes", Json::Int(doc.len() as i64)),
            ]))
        } else {
            Ok(Json::obj(vec![
                ("ok", Json::Bool(true)),
                (field, Json::Str(doc)),
            ]))
        }
    }
}

// ---------------------------------------------------------------------
// Framing + transport
// ---------------------------------------------------------------------

/// Write one length-prefixed frame (4-byte big-endian length + payload).
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    let mut frame = vec![0; 4];
    frame.extend_from_slice(payload);
    write_reserved(w, frame)
}

/// Encode `doc` as one frame, behind four bytes reserved for the header.
fn send(w: &mut impl Write, doc: &Json) -> io::Result<()> {
    let mut frame = String::from("\0\0\0\0");
    Encoder::compact(&mut frame).json(doc);
    write_reserved(w, frame.into_bytes())
}

/// Fill in the four header bytes reserved at the front of `frame` and
/// send it in one `write_all`, so the payload is never copied again.
fn write_reserved(w: &mut impl Write, mut frame: Vec<u8>) -> io::Result<()> {
    let len = u32::try_from(frame.len() - 4)
        .map_err(|_| io::Error::new(ErrorKind::InvalidInput, "frame too large"))?;
    frame[..4].copy_from_slice(&len.to_be_bytes());
    w.write_all(&frame)?;
    w.flush()
}

/// Read one frame; `Ok(None)` on clean EOF at a frame boundary.
pub fn read_frame(r: &mut impl Read) -> io::Result<Option<Vec<u8>>> {
    let mut hdr = [0u8; 4];
    let mut filled = 0;
    while filled < 4 {
        let n = r.read(&mut hdr[filled..])?;
        if n == 0 {
            if filled == 0 {
                return Ok(None);
            }
            return Err(io::Error::new(
                ErrorKind::UnexpectedEof,
                "truncated frame header",
            ));
        }
        filled += n;
    }
    let len = u32::from_be_bytes(hdr);
    if len > MAX_FRAME_BYTES {
        return Err(io::Error::new(
            ErrorKind::InvalidData,
            format!("frame of {len} bytes exceeds cap"),
        ));
    }
    let mut payload = vec![0u8; len as usize];
    r.read_exact(&mut payload)?;
    Ok(Some(payload))
}

/// Where the server listens (and clients connect).
#[derive(Debug, Clone)]
pub enum Endpoint {
    /// A Unix-domain socket path.
    Unix(std::path::PathBuf),
    /// A TCP address, e.g. `127.0.0.1:7117`.
    Tcp(String),
}

impl std::fmt::Display for Endpoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Endpoint::Unix(p) => write!(f, "unix:{}", p.display()),
            Endpoint::Tcp(a) => write!(f, "tcp:{a}"),
        }
    }
}

/// A connected Unix or TCP socket.
trait Conn: Read + Write + Send {}
impl<T: Read + Write + Send> Conn for T {}
type Stream = Box<dyn Conn>;

/// A blocking protocol client: connect, then [`Client::call`] per
/// request.
pub struct Client {
    conn: BufReader<Stream>,
}

impl Client {
    /// Connect to a listening server.
    pub fn connect(ep: &Endpoint) -> io::Result<Client> {
        let stream: Stream = match ep {
            Endpoint::Unix(path) => Box::new(std::os::unix::net::UnixStream::connect(path)?),
            Endpoint::Tcp(addr) => Box::new(std::net::TcpStream::connect(addr)?),
        };
        Ok(Client {
            conn: BufReader::new(stream),
        })
    }

    /// Send one request, wait for its reply.
    pub fn call(&mut self, req: &Json) -> io::Result<Json> {
        send(self.conn.get_mut(), req)?;
        let payload = read_frame(&mut self.conn)?
            .ok_or_else(|| io::Error::new(ErrorKind::UnexpectedEof, "server closed mid-call"))?;
        let text =
            String::from_utf8(payload).map_err(|e| io::Error::new(ErrorKind::InvalidData, e))?;
        json::parse(&text).map_err(|e| io::Error::new(ErrorKind::InvalidData, e))
    }
}

enum Listener {
    Unix(std::os::unix::net::UnixListener),
    Tcp(std::net::TcpListener),
}

impl Listener {
    fn bind(ep: &Endpoint) -> io::Result<Listener> {
        match ep {
            Endpoint::Unix(path) => {
                // A previous unclean exit may have left the socket file.
                let _ = std::fs::remove_file(path);
                let l = std::os::unix::net::UnixListener::bind(path)?;
                l.set_nonblocking(true)?;
                Ok(Listener::Unix(l))
            }
            Endpoint::Tcp(addr) => {
                let l = std::net::TcpListener::bind(addr)?;
                l.set_nonblocking(true)?;
                Ok(Listener::Tcp(l))
            }
        }
    }

    fn accept(&self) -> io::Result<Stream> {
        match self {
            Listener::Unix(l) => {
                let (s, _) = l.accept()?;
                s.set_nonblocking(false)?;
                Ok(Box::new(s))
            }
            Listener::Tcp(l) => {
                let (s, _) = l.accept()?;
                s.set_nonblocking(false)?;
                Ok(Box::new(s))
            }
        }
    }
}

/// Serve `service` on `endpoint` until a client sends `shutdown` (or
/// `stop` is set externally).
///
/// The calling thread only accepts. Each connection's thread reads a
/// request, runs it under one lock on the service and writes the reply,
/// so the journal admission order, the order a restore replays, is the
/// lock order. `stop` is checked under the lock: a request after
/// `shutdown`, or after one that panicked the service (poisoning the
/// lock; never run on state a panic may have torn), is answered
/// `"server is shutting down"`. Returns once no request is mid-handle:
/// `Ok` on a clean shutdown, which the CI leg gates on, and an error
/// when accepting failed or a request panicked the service.
pub fn serve(service: SimService, endpoint: &Endpoint, stop: Arc<AtomicBool>) -> io::Result<()> {
    const FIRST_POLL: Duration = Duration::from_micros(50);
    const MAX_POLL: Duration = Duration::from_millis(5);
    let listener = Listener::bind(endpoint)?;
    let server = Arc::new(Server {
        service: Mutex::new(service),
        stop,
        acceptor: std::thread::current(),
    });
    // The accept poll backs off while no client connects; `shutdown`
    // unparks it.
    let mut poll = FIRST_POLL;
    let accepted = loop {
        if server.stop.load(Ordering::SeqCst) || server.service.is_poisoned() {
            break Ok(());
        }
        match listener.accept() {
            Ok(stream) => {
                poll = FIRST_POLL;
                let server = Arc::clone(&server);
                std::thread::spawn(move || server.serve_connection(stream));
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => {
                std::thread::park_timeout(poll);
                poll = (poll * 2).min(MAX_POLL);
            }
            Err(e) => break Err(e),
        }
    };
    // Refuse whatever comes next, then wait out a request mid-handle.
    server.stop.store(true, Ordering::SeqCst);
    let settled = server.service.lock().map(drop);
    if let Endpoint::Unix(path) = endpoint {
        let _ = std::fs::remove_file(path);
    }
    accepted.and(settled.map_err(|_| io::Error::other("a request panicked the service")))
}

/// What the accept loop shares with every connection thread.
struct Server {
    service: Mutex<SimService>,
    stop: Arc<AtomicBool>,
    /// The accept loop's thread, unparked once `stop` is set.
    acceptor: std::thread::Thread,
}

impl Server {
    fn serve_connection(&self, stream: Stream) {
        let mut conn = BufReader::new(stream);
        while let Ok(Some(payload)) = read_frame(&mut conn) {
            let sent = match std::str::from_utf8(&payload)
                .map_err(|e| e.to_string())
                .and_then(|t| json::parse(t).map_err(|e| e.to_string()))
            {
                Ok(req) => self.run_request(&req, conn.get_mut()),
                Err(msg) => send(conn.get_mut(), &error_reply(&format!("bad request: {msg}"))),
            };
            if sent.is_err() {
                return;
            }
        }
    }

    /// Run `req` under the service lock and write its reply to `out`.
    fn run_request(&self, req: &Json, out: &mut impl Write) -> io::Result<()> {
        let mut svc = match self.service.lock() {
            Ok(svc) if !self.stop.load(Ordering::SeqCst) => svc,
            // Stopped, or poisoned by a panic in `handle`.
            _ => {
                self.stop();
                return send(out, &error_reply("server is shutting down"));
            }
        };
        let reply = svc.handle(req);
        // `shutdown` replies under the lock and only then stops: once
        // `serve` sees `stop`, it returns and the process may exit.
        let shutdown = req.get("op").and_then(Json::as_str) == Some("shutdown");
        if !shutdown {
            drop(svc);
        }
        let sent = send(out, &reply);
        if shutdown {
            self.stop();
        }
        sent
    }

    fn stop(&self) {
        self.stop.store(true, Ordering::SeqCst);
        self.acceptor.unpark();
    }
}

fn error_reply(msg: &str) -> Json {
    Json::obj(vec![("ok", Json::Bool(false)), ("error", Json::str(msg))])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req(pairs: Vec<(&str, Json)>) -> Json {
        Json::obj(pairs)
    }

    #[test]
    fn create_post_advance_poll_roundtrip_in_process() {
        let mut svc = SimService::new(ServiceConfig::small()).unwrap();
        let r = svc.handle(&req(vec![
            ("op", Json::str("create_qp")),
            ("client", Json::str("a")),
            ("src", Json::Int(0)),
            ("dst", Json::Int(5)),
        ]));
        assert_eq!(r.get("ok"), Some(&Json::Bool(true)), "{r:?}");
        let qp = r.get("qp").and_then(Json::as_i64).unwrap();
        for wr in 0..3 {
            let r = svc.handle(&req(vec![
                ("op", Json::str("post_send")),
                ("client", Json::str("a")),
                ("qp", Json::Int(qp)),
                ("bytes", Json::Int(64 << 10)),
            ]));
            assert_eq!(r.get("wr"), Some(&Json::Int(wr)), "{r:?}");
        }
        let r = svc.handle(&req(vec![
            ("op", Json::str("advance")),
            ("windows", Json::Int(4)),
        ]));
        assert_eq!(r.get("ok"), Some(&Json::Bool(true)), "{r:?}");
        let r = svc.handle(&req(vec![
            ("op", Json::str("poll_cq")),
            ("client", Json::str("a")),
        ]));
        let completions = r.get("completions").and_then(Json::as_arr).unwrap();
        assert_eq!(
            completions.len(),
            3,
            "the posted sends must complete: {r:?}"
        );
        assert!(completions[0].get("fct_ns").and_then(Json::as_i64).unwrap() > 0);
        // `since` pages from the start, the middle and past the end.
        for (since, wrs) in [(0, vec![0, 1, 2]), (1, vec![1, 2]), (3, vec![])] {
            let r = svc.handle(&req(vec![
                ("op", Json::str("poll_cq")),
                ("client", Json::str("a")),
                ("since", Json::Int(since)),
            ]));
            let got: Vec<i64> = r
                .get("completions")
                .and_then(Json::as_arr)
                .unwrap()
                .iter()
                .map(|c| c.get("wr").and_then(Json::as_i64).unwrap())
                .collect();
            assert_eq!(got, wrs, "since {since}: {r:?}");
        }
    }

    #[test]
    fn malformed_requests_error_instead_of_panicking() {
        let mut svc = SimService::new(ServiceConfig::small()).unwrap();
        for bad in [
            req(vec![("op", Json::str("warp"))]),
            req(vec![("no_op", Json::Int(1))]),
            req(vec![
                ("op", Json::str("create_qp")),
                ("client", Json::str("a")),
            ]),
            req(vec![
                ("op", Json::str("create_qp")),
                ("client", Json::str("a")),
                ("src", Json::Int(0)),
                ("dst", Json::Int(0)),
            ]),
            req(vec![
                ("op", Json::str("create_qp")),
                ("client", Json::str("a")),
                ("src", Json::Int(0)),
                ("dst", Json::Int(10_000)),
            ]),
            req(vec![
                ("op", Json::str("post_send")),
                ("client", Json::str("a")),
                ("qp", Json::Int(99)),
                ("bytes", Json::Int(1)),
            ]),
            req(vec![
                ("op", Json::str("advance")),
                ("windows", Json::Int(0)),
            ]),
            req(vec![("op", Json::str("query_qp")), ("qp", Json::Int(7))]),
            // 2^32 would truncate to host 0.
            req(vec![
                ("op", Json::str("create_qp")),
                ("client", Json::str("a")),
                ("src", Json::Int(1 << 32)),
                ("dst", Json::Int(1)),
            ]),
        ] {
            let r = svc.handle(&bad);
            assert_eq!(r.get("ok"), Some(&Json::Bool(false)), "{bad:?} -> {r:?}");
            assert!(r.get("error").is_some());
        }
        // Rejected ops must not have landed in the journal.
        assert!(svc.journal.is_empty());
    }

    #[test]
    fn degenerate_service_configs_are_rejected() {
        let mut cfg = ServiceConfig::small();
        cfg.window = TimeDelta::from_nanos(0);
        assert!(
            SimService::new(cfg).is_err(),
            "zero window must be rejected"
        );
        let mut cfg = ServiceConfig::small();
        cfg.k = 6; // k/2 == 3: not a power of two
        assert!(ServiceConfig {
            k: 6,
            ..ServiceConfig::small()
        }
        .validate()
        .is_err());
        cfg.k = 4;
        cfg.shards = 17; // 16 hosts on k=4
        assert!(cfg.validate().is_err(), "shards > hosts must be rejected");
    }

    #[test]
    fn snapshot_restore_is_byte_identical_to_continuous() {
        let script_prefix = |svc: &mut SimService| {
            for (src, dst) in [(0i64, 5i64), (2, 9)] {
                svc.handle(&req(vec![
                    ("op", Json::str("create_qp")),
                    ("client", Json::str("a")),
                    ("src", Json::Int(src)),
                    ("dst", Json::Int(dst)),
                ]));
            }
            for qp in [0i64, 1] {
                svc.handle(&req(vec![
                    ("op", Json::str("post_send")),
                    ("client", Json::str("a")),
                    ("qp", Json::Int(qp)),
                    ("bytes", Json::Int(32 << 10)),
                ]));
            }
            svc.handle(&req(vec![
                ("op", Json::str("advance")),
                ("windows", Json::Int(2)),
            ]));
        };
        let continue_ops = |svc: &mut SimService| {
            svc.handle(&req(vec![
                ("op", Json::str("post_send")),
                ("client", Json::str("a")),
                ("qp", Json::Int(0)),
                ("bytes", Json::Int(8 << 10)),
            ]));
            svc.handle(&req(vec![
                ("op", Json::str("advance")),
                ("windows", Json::Int(3)),
            ]));
        };

        // `ServiceConfig::shards` promises "any value is bit-identical":
        // the same script on the partitioned engine, where an `advance`
        // of several windows is one sharded engine run.
        let mut continuous_docs = Vec::new();
        for shards in [1, 2] {
            let cfg = ServiceConfig {
                shards,
                ..ServiceConfig::small()
            };

            // Continuous run.
            let mut cont = SimService::new(cfg.clone()).unwrap();
            script_prefix(&mut cont);
            continue_ops(&mut cont);

            // Checkpointed run: same prefix, snapshot, restore, continue.
            let mut a = SimService::new(cfg).unwrap();
            script_prefix(&mut a);
            let snap = a.snapshot();
            drop(a);
            let mut b = SimService::from_snapshot(&snap).unwrap();
            continue_ops(&mut b);

            assert_eq!(
                cont.telemetry_json(None),
                b.telemetry_json(None),
                "restored continuation must be byte-identical to the uninterrupted run"
            );
            assert_eq!(cont.snapshot(), b.snapshot(), "journals must agree too");
            continuous_docs.push(cont.telemetry_json(None));
        }
        assert_eq!(
            continuous_docs[0], continuous_docs[1],
            "serial and 2-shard services must write the same document"
        );
    }

    fn create_qp(client: &str, src: i64, dst: i64) -> Json {
        req(vec![
            ("op", Json::str("create_qp")),
            ("client", Json::str(client)),
            ("src", Json::Int(src)),
            ("dst", Json::Int(dst)),
        ])
    }

    fn post_send(client: &str, qp: i64, bytes: i64) -> Json {
        req(vec![
            ("op", Json::str("post_send")),
            ("client", Json::str(client)),
            ("qp", Json::Int(qp)),
            ("bytes", Json::Int(bytes)),
        ])
    }

    #[test]
    fn snapshot_is_the_whole_document_encoding_byte_for_byte() {
        let mut svc = SimService::new(ServiceConfig::small()).unwrap();
        for r in [
            create_qp("a", 0, 5),
            create_qp("a\"b", 8, 13),
            post_send("a", 0, 32 << 10),
            post_send("a\"b", 1, 8 << 10),
            advance(2),
            post_send("a", 0, 4 << 10),
            advance(1),
        ] {
            let reply = svc.handle(&r);
            assert_eq!(reply.get("ok"), Some(&Json::Bool(true)), "{reply:?}");
        }
        // The reference: the whole document as one tree, then encoded.
        let reference = Json::obj(vec![
            ("kind", Json::str(SNAPSHOT_KIND)),
            ("v", Json::Int(SNAPSHOT_VERSION)),
            ("config", svc.cfg.to_json()),
            (
                "journal",
                Json::Arr(svc.journal.iter().map(JournalOp::to_json).collect()),
            ),
        ])
        .to_string();
        assert!(reference.contains(r#""client":"a\"b""#), "{reference}");
        assert_eq!(svc.snapshot(), reference);
        let restored = SimService::from_snapshot(&reference).unwrap();
        assert_eq!(restored.snapshot(), reference);
        assert_eq!(restored.telemetry_json(None), svc.telemetry_json(None));

        let empty = SimService::new(ServiceConfig::small()).unwrap();
        assert!(empty.snapshot().ends_with(r#""journal":[]}"#));
    }

    #[test]
    fn restore_reports_the_first_bad_journal_entry_in_journal_order() {
        // 999 valid entries, then a post_send without `bytes`.
        let mut svc = SimService::new(ServiceConfig::small()).unwrap();
        svc.handle(&create_qp("a", 0, 5));
        for _ in 0..499 {
            svc.handle(&post_send("a", 0, 1 << 10));
            svc.handle(&advance(1));
        }
        assert_eq!(svc.journal.len(), 999);
        let splice = |snap: &str, entry: &str| {
            let body = snap.strip_suffix("]}").unwrap();
            format!("{body},{entry}]}}")
        };
        let malformed = r#"{"op":"post_send","client":"a","qp":0}"#;
        let snap = splice(&svc.snapshot(), malformed);
        assert_eq!(
            SimService::from_snapshot(&snap).err().as_deref(),
            Some("request needs a non-negative \"bytes\" field")
        );
        // An entry that decodes but fails to apply comes first in the
        // journal, so it is the error reported.
        svc.journal[500] = JournalOp::PostSend {
            client: "a".into(),
            qp: 9,
            bytes: 1,
        };
        let snap = splice(&svc.snapshot(), malformed);
        assert_eq!(
            SimService::from_snapshot(&snap).err().as_deref(),
            Some("post_send: unknown qp 9")
        );
    }

    fn advance(windows: i64) -> Json {
        req(vec![
            ("op", Json::str("advance")),
            ("windows", Json::Int(windows)),
        ])
    }

    #[test]
    fn an_advance_past_the_end_of_time_is_refused_and_a_long_one_is_one_engine_run() {
        let mut svc = SimService::new(ServiceConfig::small()).unwrap();
        // 500 us windows: i64::MAX of them overflow u64 nanoseconds.
        let r = svc.handle(&advance(i64::MAX));
        assert_eq!(r.get("ok"), Some(&Json::Bool(false)), "{r:?}");
        assert!(svc.journal.is_empty(), "a refused op is not journaled");
        assert_eq!(svc.boundary(), Nanos::ZERO, "and the clock did not move");

        // A billion idle windows cost one engine run, not a billion
        // loop iterations (seconds of a held service lock).
        let t0 = std::time::Instant::now();
        let r = svc.handle(&advance(1_000_000_000));
        assert_eq!(r.get("ok"), Some(&Json::Bool(true)), "{r:?}");
        assert!(t0.elapsed() < std::time::Duration::from_secs(1));
        assert_eq!(
            r.get("window").and_then(Json::as_i64),
            Some(1_000_000_000),
            "{r:?}"
        );
        assert_eq!(svc.boundary(), Nanos(500_000 * 1_000_000_000));
    }

    #[test]
    fn every_advance_leaves_the_switch_drop_logs_empty() {
        use crate::faults::{Fault, FaultEvent, FaultPlan};
        let mut svc = SimService::new(ServiceConfig::small()).unwrap();
        // The wire has no fault op: install 5 % loss on every uplink of
        // the sender's edge switch directly.
        let mut plan = FaultPlan::none();
        for uplink in 0..2 {
            plan.events.push(FaultEvent {
                at: Nanos::ZERO,
                fault: Fault::UplinkLoss {
                    leaf: 0,
                    uplink,
                    rate_ppm: 50_000,
                },
            });
        }
        plan.install(&mut svc.session.cluster);
        svc.handle(&req(vec![
            ("op", Json::str("create_qp")),
            ("client", Json::str("a")),
            ("src", Json::Int(0)),
            ("dst", Json::Int(5)),
        ]));
        svc.handle(&req(vec![
            ("op", Json::str("post_send")),
            ("client", Json::str("a")),
            ("qp", Json::Int(0)),
            ("bytes", Json::Int(1 << 20)),
        ]));
        for windows in [1, 3] {
            svc.handle(&advance(windows));
            let cluster = &svc.session.cluster;
            for id in cluster.all_switches() {
                assert!(cluster.switch(id).unwrap().drop_log().is_empty());
            }
        }
        assert!(svc.session.drops().data_dropped > 0, "the loss did bite");
    }

    #[test]
    fn scoped_telemetry_prefixes_every_metric() {
        let mut svc = SimService::new(ServiceConfig::small()).unwrap();
        svc.handle(&req(vec![
            ("op", Json::str("advance")),
            ("windows", Json::Int(1)),
        ]));
        let doc = svc.telemetry_json(Some("tenant-a"));
        assert!(doc.contains("tenant-a.service.window"));
        assert!(!doc.contains("\"service.window\""));
    }
}
