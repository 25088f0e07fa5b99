//! Wire protocol of the campaign server: length-prefixed JSON frames over
//! a Unix or TCP socket.
//!
//! Every frame is a 4-byte little-endian payload length followed by that
//! many bytes of byte-stable JSON (the workspace's own [`Json`] tree — no
//! external serialization). Length-prefixing makes worker death trivially
//! detectable and safe: a SIGKILL mid-frame leaves a short read, which the
//! peer treats exactly like a closed connection, never as a half-parsed
//! message.
//!
//! The message set is deliberately small — workers *pull* jobs, stream
//! trace events back, and report one terminal message per job:
//!
//! ```text
//! worker  ->  server   Hello     { worker }
//! worker  ->  server   JobRequest{ worker }
//! server  ->  worker   JobAssign { job, spec, policy, checkpoint_dir }
//! server  ->  worker   NoJob     { done }        (done: exit; else re-ask)
//! worker  ->  server   Event     { job, line }   (one JSONL trace event)
//! worker  ->  server   JobDone   { job, record, sim_ms }
//! worker  ->  server   JobFailed { job, error }
//! client  ->  server   GetFvm    { platform, chip_seed, temp_mc, v_ref_mv }
//! server  ->  client   Fvm       { record }       (FvmRecord canonical JSON)
//! client  ->  server   Subscribe { from_seq, queue_cap }
//! server  ->  client   EventBatch{ first_seq, lines, dropped, done }
//! client  ->  server   Unsubscribe
//! ```
//!
//! `GetFvm` lets any client — a worker about to place an accelerator, a
//! repeat client across millions of chip seeds — fetch a fault-variation
//! census from the server's shared `FvmCache` instead of regenerating the
//! die locally. Temperature travels as milli-°C (`temp_mc`) so the wire
//! key is integral; the reply is the byte-stable [`FvmRecord`] JSON.
//!
//! `Subscribe` turns a connection into a live tail of the server's
//! *published* merged event log — the same job-ordered, sequence-
//! renumbered stream the post-run manifest is built from — starting at
//! `from_seq` (0 for everything; resuming clients pass their last seen
//! seq + 1). The server pushes `EventBatch` frames of JSONL lines; a
//! batch with `done: true` means the campaign is over and the log is
//! complete. Each subscriber has a bounded queue: a slow reader loses
//! old batches (accounted in the cumulative `dropped`) rather than
//! stalling the job queue. `queue_cap` of 0 asks for the server default;
//! tests pass a tiny cap to exercise the lag path deterministically.
//!
//! [`FvmRecord`]: uvf_characterize::record::FvmRecord

use std::fmt;
use std::io::{self, BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use uvf_characterize::prelude::{CampaignJob, Json, RecoveryPolicy};
use uvf_characterize::record::RecordError;

/// Upper bound on one frame; a full VC707 sweep record is ~100 KiB, so
/// this is generous headroom, while a garbage length prefix (corrupt
/// peer) fails fast instead of allocating gigabytes.
pub const MAX_FRAME_BYTES: u32 = 16 << 20;

/// Write one `length ‖ payload` frame and flush it.
pub fn write_frame(w: &mut impl Write, json: &Json) -> io::Result<()> {
    append_frame(w, json)?;
    w.flush()
}

/// Write one `length ‖ payload` frame without flushing: behind a buffered
/// writer, consecutive frames leave in one write.
fn append_frame(w: &mut impl Write, json: &Json) -> io::Result<()> {
    let payload = json.to_string();
    let len = u32::try_from(payload.len())
        .ok()
        .filter(|l| *l <= MAX_FRAME_BYTES)
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "frame too large"))?;
    w.write_all(&len.to_le_bytes())?;
    w.write_all(payload.as_bytes())
}

/// Read one frame. `Ok(None)` is a clean close (EOF before any length
/// byte); a close or kill mid-frame is an `UnexpectedEof` error.
pub fn read_frame(r: &mut impl Read) -> io::Result<Option<Json>> {
    let mut len_bytes = [0u8; 4];
    match r.read_exact(&mut len_bytes) {
        Ok(()) => {}
        Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => return Ok(None),
        Err(e) => return Err(e),
    }
    let len = u32::from_le_bytes(len_bytes);
    if len > MAX_FRAME_BYTES {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame length {len} exceeds cap"),
        ));
    }
    let mut payload = vec![0u8; len as usize];
    r.read_exact(&mut payload)?;
    let text = String::from_utf8(payload)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
    Json::parse(&text)
        .map(Some)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))
}

/// One protocol message; see the module docs for the exchange.
#[derive(Debug, Clone, PartialEq)]
pub enum Message {
    Hello {
        worker: u64,
    },
    JobRequest {
        worker: u64,
    },
    JobAssign {
        job: usize,
        spec: CampaignJob,
        policy: RecoveryPolicy,
        /// Shared checkpoint directory (same host / shared filesystem);
        /// the worker resumes from whatever a predecessor left there.
        checkpoint_dir: Option<String>,
    },
    NoJob {
        /// `true`: the campaign is over, exit. `false`: all jobs are
        /// currently leased — back off and ask again.
        done: bool,
    },
    Event {
        job: usize,
        /// One deterministic-core JSONL line ([`uvf_trace::Event`]).
        line: String,
    },
    JobDone {
        job: usize,
        /// The finished sweep record's canonical JSON.
        record: String,
        sim_ms: u64,
    },
    JobFailed {
        job: usize,
        error: String,
    },
    /// Fetch the fault-variation census for a die from the server's
    /// shared [`FvmCache`](uvf_characterize::FvmCache).
    GetFvm {
        /// Platform label (`PlatformKind::to_string` / `FromStr` form).
        platform: String,
        chip_seed: u64,
        /// Temperature in milli-°C — fixed point keeps `f64` off the wire.
        temp_mc: i64,
        v_ref_mv: u32,
    },
    /// Reply to [`Message::GetFvm`]: the census as canonical
    /// [`FvmRecord`](uvf_characterize::record::FvmRecord) JSON.
    Fvm {
        record: String,
    },
    /// Tail the published merged event log live, starting at `from_seq`.
    Subscribe {
        from_seq: u64,
        /// Per-subscriber queue bound in events; 0 = server default.
        queue_cap: u64,
    },
    /// A run of consecutive published events, as JSONL lines.
    EventBatch {
        /// Sequence number of the first line in `lines` (meaningless
        /// when `lines` is empty, e.g. a final empty `done` batch).
        first_seq: u64,
        lines: Vec<String>,
        /// Cumulative events dropped for *this* subscriber because its
        /// queue overflowed (the stream has a gap after a drop).
        dropped: u64,
        /// Campaign finished and every published event was delivered.
        done: bool,
    },
    /// Stop tailing; the server closes the subscription cleanly.
    Unsubscribe,
}

impl Message {
    #[must_use]
    pub fn to_json(&self) -> Json {
        match self {
            Message::Hello { worker } => Json::obj(vec![
                ("type", Json::Str("hello".into())),
                ("worker", Json::UInt(*worker)),
            ]),
            Message::JobRequest { worker } => Json::obj(vec![
                ("type", Json::Str("job_request".into())),
                ("worker", Json::UInt(*worker)),
            ]),
            Message::JobAssign {
                job,
                spec,
                policy,
                checkpoint_dir,
            } => {
                let mut fields = vec![
                    ("type", Json::Str("job_assign".into())),
                    ("job", Json::UInt(*job as u64)),
                    ("spec", spec.to_json()),
                    ("policy", policy.to_json()),
                ];
                if let Some(dir) = checkpoint_dir {
                    fields.push(("checkpoint_dir", Json::Str(dir.clone())));
                }
                Json::obj(fields)
            }
            Message::NoJob { done } => Json::obj(vec![
                ("type", Json::Str("no_job".into())),
                ("done", Json::Bool(*done)),
            ]),
            Message::Event { job, line } => Json::obj(vec![
                ("type", Json::Str("event".into())),
                ("job", Json::UInt(*job as u64)),
                ("line", Json::Str(line.clone())),
            ]),
            Message::JobDone {
                job,
                record,
                sim_ms,
            } => Json::obj(vec![
                ("type", Json::Str("job_done".into())),
                ("job", Json::UInt(*job as u64)),
                ("record", Json::Str(record.clone())),
                ("sim_ms", Json::UInt(*sim_ms)),
            ]),
            Message::JobFailed { job, error } => Json::obj(vec![
                ("type", Json::Str("job_failed".into())),
                ("job", Json::UInt(*job as u64)),
                ("error", Json::Str(error.clone())),
            ]),
            Message::GetFvm {
                platform,
                chip_seed,
                temp_mc,
                v_ref_mv,
            } => Json::obj(vec![
                ("type", Json::Str("get_fvm".into())),
                ("platform", Json::Str(platform.clone())),
                ("chip_seed", Json::UInt(*chip_seed)),
                ("temp_mc", Json::Int(*temp_mc)),
                ("v_ref_mv", Json::UInt(u64::from(*v_ref_mv))),
            ]),
            Message::Fvm { record } => Json::obj(vec![
                ("type", Json::Str("fvm".into())),
                ("record", Json::Str(record.clone())),
            ]),
            Message::Subscribe {
                from_seq,
                queue_cap,
            } => Json::obj(vec![
                ("type", Json::Str("subscribe".into())),
                ("from_seq", Json::UInt(*from_seq)),
                ("queue_cap", Json::UInt(*queue_cap)),
            ]),
            Message::EventBatch {
                first_seq,
                lines,
                dropped,
                done,
            } => Json::obj(vec![
                ("type", Json::Str("event_batch".into())),
                ("first_seq", Json::UInt(*first_seq)),
                (
                    "lines",
                    Json::Arr(lines.iter().map(|l| Json::Str(l.clone())).collect()),
                ),
                ("dropped", Json::UInt(*dropped)),
                ("done", Json::Bool(*done)),
            ]),
            Message::Unsubscribe => Json::obj(vec![("type", Json::Str("unsubscribe".into()))]),
        }
    }

    pub fn from_json(v: &Json) -> Result<Message, RecordError> {
        use uvf_characterize::record::{req_str, req_u64, schema};
        let job = || -> Result<usize, RecordError> {
            usize::try_from(req_u64(v, "job")?).map_err(|_| schema("job index overflow"))
        };
        Ok(match req_str(v, "type")? {
            "hello" => Message::Hello {
                worker: req_u64(v, "worker")?,
            },
            "job_request" => Message::JobRequest {
                worker: req_u64(v, "worker")?,
            },
            "job_assign" => Message::JobAssign {
                job: job()?,
                spec: CampaignJob::from_json(v.get("spec").ok_or_else(|| schema("spec missing"))?)?,
                policy: RecoveryPolicy::from_json(
                    v.get("policy").ok_or_else(|| schema("policy missing"))?,
                )?,
                checkpoint_dir: v
                    .get("checkpoint_dir")
                    .and_then(Json::as_str)
                    .map(str::to_string),
            },
            "no_job" => Message::NoJob {
                done: v
                    .get("done")
                    .and_then(Json::as_bool)
                    .ok_or_else(|| schema("done missing"))?,
            },
            "event" => Message::Event {
                job: job()?,
                line: req_str(v, "line")?.to_string(),
            },
            "job_done" => Message::JobDone {
                job: job()?,
                record: req_str(v, "record")?.to_string(),
                sim_ms: req_u64(v, "sim_ms")?,
            },
            "job_failed" => Message::JobFailed {
                job: job()?,
                error: req_str(v, "error")?.to_string(),
            },
            "get_fvm" => Message::GetFvm {
                platform: req_str(v, "platform")?.to_string(),
                chip_seed: req_u64(v, "chip_seed")?,
                temp_mc: match v.get("temp_mc") {
                    Some(Json::Int(t)) => *t,
                    Some(Json::UInt(t)) => {
                        i64::try_from(*t).map_err(|_| schema("temp_mc overflow"))?
                    }
                    _ => return Err(schema("temp_mc missing")),
                },
                v_ref_mv: u32::try_from(req_u64(v, "v_ref_mv")?)
                    .map_err(|_| schema("v_ref_mv overflow"))?,
            },
            "fvm" => Message::Fvm {
                record: req_str(v, "record")?.to_string(),
            },
            "subscribe" => Message::Subscribe {
                from_seq: req_u64(v, "from_seq")?,
                queue_cap: req_u64(v, "queue_cap")?,
            },
            "event_batch" => Message::EventBatch {
                first_seq: req_u64(v, "first_seq")?,
                lines: v
                    .get("lines")
                    .and_then(Json::as_arr)
                    .ok_or_else(|| schema("lines missing"))?
                    .iter()
                    .map(|l| {
                        l.as_str()
                            .map(str::to_string)
                            .ok_or_else(|| schema("non-string event line"))
                    })
                    .collect::<Result<Vec<String>, RecordError>>()?,
                dropped: req_u64(v, "dropped")?,
                done: v
                    .get("done")
                    .and_then(Json::as_bool)
                    .ok_or_else(|| schema("done missing"))?,
            },
            "unsubscribe" => Message::Unsubscribe,
            other => return Err(schema(&format!("unknown message type {other}"))),
        })
    }

    /// Frame this message onto `w` and flush it.
    pub fn write_to(&self, w: &mut impl Write) -> io::Result<()> {
        write_frame(w, &self.to_json())
    }

    /// Frame this message onto `w` without flushing ([`append_frame`]).
    pub(crate) fn append_to(&self, w: &mut impl Write) -> io::Result<()> {
        append_frame(w, &self.to_json())
    }

    /// Read and decode the next message; `Ok(None)` is a clean close.
    pub fn read_from(r: &mut impl Read) -> io::Result<Option<Message>> {
        match read_frame(r)? {
            None => Ok(None),
            Some(json) => Message::from_json(&json)
                .map(Some)
                .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string())),
        }
    }
}

/// Where the server listens / the workers connect: `unix:/path/to.sock`
/// or `tcp:host:port` (`port 0` binds ephemerally; the bound listener
/// reports the real port).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Endpoint {
    Unix(PathBuf),
    Tcp(String),
}

impl Endpoint {
    pub fn parse(text: &str) -> Result<Endpoint, String> {
        if let Some(path) = text.strip_prefix("unix:") {
            if path.is_empty() {
                return Err("unix endpoint needs a socket path".into());
            }
            Ok(Endpoint::Unix(PathBuf::from(path)))
        } else if let Some(addr) = text.strip_prefix("tcp:") {
            if !addr.contains(':') {
                return Err(format!("tcp endpoint {addr:?} needs host:port"));
            }
            Ok(Endpoint::Tcp(addr.to_string()))
        } else {
            Err(format!("endpoint {text:?} must start with unix: or tcp:"))
        }
    }

    /// Bind a listener here. Unix sockets remove a stale socket file
    /// first (a previous server killed without cleanup).
    pub fn listen(&self) -> io::Result<BoundListener> {
        match self {
            Endpoint::Unix(path) => {
                if path.exists() {
                    std::fs::remove_file(path)?;
                }
                let listener = UnixListener::bind(path)?;
                listener.set_nonblocking(true)?;
                Ok(BoundListener {
                    endpoint: self.clone(),
                    inner: ListenerKind::Unix(listener),
                })
            }
            Endpoint::Tcp(addr) => {
                let listener = TcpListener::bind(addr.as_str())?;
                let bound = listener.local_addr()?;
                listener.set_nonblocking(true)?;
                Ok(BoundListener {
                    endpoint: Endpoint::Tcp(bound.to_string()),
                    inner: ListenerKind::Tcp(listener),
                })
            }
        }
    }

    /// Connect a worker here.
    pub fn connect(&self) -> io::Result<Conn> {
        match self {
            Endpoint::Unix(path) => Conn::from_unix(UnixStream::connect(path)?),
            Endpoint::Tcp(addr) => Conn::from_tcp(TcpStream::connect(addr.as_str())?),
        }
    }
}

impl fmt::Display for Endpoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Endpoint::Unix(path) => write!(f, "unix:{}", path.display()),
            Endpoint::Tcp(addr) => write!(f, "tcp:{addr}"),
        }
    }
}

enum ListenerKind {
    Unix(UnixListener),
    Tcp(TcpListener),
}

/// A non-blocking listener: the server polls [`BoundListener::accept`]
/// between supervision ticks instead of parking a thread in `accept(2)`.
pub struct BoundListener {
    endpoint: Endpoint,
    inner: ListenerKind,
}

impl BoundListener {
    /// The endpoint workers should connect to (with the real TCP port
    /// when bound ephemerally).
    #[must_use]
    pub fn endpoint(&self) -> &Endpoint {
        &self.endpoint
    }

    /// Accept one pending connection, or `None` when nobody is waiting.
    pub fn accept(&self) -> io::Result<Option<Conn>> {
        let conn = match &self.inner {
            ListenerKind::Unix(l) => match l.accept() {
                Ok((stream, _)) => {
                    stream.set_nonblocking(false)?;
                    Some(Conn::from_unix(stream)?)
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => None,
                Err(e) => return Err(e),
            },
            ListenerKind::Tcp(l) => match l.accept() {
                Ok((stream, _)) => {
                    stream.set_nonblocking(false)?;
                    Some(Conn::from_tcp(stream)?)
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => None,
                Err(e) => return Err(e),
            },
        };
        Ok(conn)
    }
}

/// One bidirectional peer connection, split into independently owned
/// read/write halves so a worker can stream events from a sink while its
/// main loop writes job messages. The read half is buffered, so a frame's
/// length prefix and payload — and a run of small frames — come in with
/// one `read(2)`; the write half is the raw socket, and whoever wants
/// coalesced writes buffers it.
pub struct Conn {
    pub reader: Box<dyn Read + Send>,
    pub writer: Box<dyn Write + Send>,
}

impl Conn {
    fn from_unix(stream: UnixStream) -> io::Result<Conn> {
        let write_half = stream.try_clone()?;
        Ok(Conn {
            reader: Box::new(BufReader::new(stream)),
            writer: Box::new(write_half),
        })
    }

    fn from_tcp(stream: TcpStream) -> io::Result<Conn> {
        stream.set_nodelay(true).ok();
        let write_half = stream.try_clone()?;
        Ok(Conn {
            reader: Box::new(BufReader::new(stream)),
            writer: Box::new(write_half),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uvf_characterize::prelude::SweepConfig;
    use uvf_fpga::{PlatformKind, Rail};

    fn sample_messages() -> Vec<Message> {
        let spec = CampaignJob::new(PlatformKind::Kc705A, SweepConfig::quick(Rail::Vccbram, 3));
        vec![
            Message::Hello { worker: 42 },
            Message::JobRequest { worker: 42 },
            Message::JobAssign {
                job: 2,
                spec,
                policy: RecoveryPolicy::default(),
                checkpoint_dir: Some("/tmp/ckpt".into()),
            },
            Message::NoJob { done: false },
            Message::NoJob { done: true },
            Message::Event {
                job: 2,
                line: r#"{"seq":0,"kind":"instant","name":"crash"}"#.into(),
            },
            Message::JobDone {
                job: 2,
                record: "{}".into(),
                sim_ms: 1234,
            },
            Message::JobFailed {
                job: 2,
                error: "board on fire".into(),
            },
            Message::GetFvm {
                platform: PlatformKind::Vc707.to_string(),
                chip_seed: 0xFEED,
                temp_mc: -1_500,
                v_ref_mv: 540,
            },
            Message::Fvm {
                record: r#"{"platform":"vc707"}"#.into(),
            },
            Message::Subscribe {
                from_seq: 17,
                queue_cap: 0,
            },
            Message::EventBatch {
                first_seq: 17,
                lines: vec![
                    r#"{"seq":17,"kind":"instant","name":"job_done"}"#.into(),
                    r#"{"seq":18,"kind":"instant","name":"job_claimed"}"#.into(),
                ],
                dropped: 3,
                done: false,
            },
            Message::EventBatch {
                first_seq: 0,
                lines: Vec::new(),
                dropped: 0,
                done: true,
            },
            Message::Unsubscribe,
        ]
    }

    #[test]
    fn messages_roundtrip_through_frames() {
        let mut wire = Vec::new();
        for msg in sample_messages() {
            msg.write_to(&mut wire).unwrap();
        }
        let mut cursor = wire.as_slice();
        for expected in sample_messages() {
            let got = Message::read_from(&mut cursor).unwrap().unwrap();
            assert_eq!(got, expected);
        }
        assert_eq!(Message::read_from(&mut cursor).unwrap(), None, "clean EOF");
    }

    #[test]
    fn torn_frame_is_an_error_not_a_message() {
        let mut wire = Vec::new();
        Message::Hello { worker: 7 }.write_to(&mut wire).unwrap();
        // A SIGKILL mid-frame: cut the payload short.
        wire.truncate(wire.len() - 3);
        let mut cursor = wire.as_slice();
        assert!(Message::read_from(&mut cursor).is_err());
    }

    #[test]
    fn oversized_length_prefix_is_rejected() {
        let bytes = (MAX_FRAME_BYTES + 1).to_le_bytes();
        assert!(read_frame(&mut bytes.as_slice()).is_err());
    }

    #[test]
    fn deeply_nested_frame_is_invalid_data_not_a_stack_overflow() {
        let payload = "[".repeat(1 << 20);
        let mut wire = (payload.len() as u32).to_le_bytes().to_vec();
        wire.extend_from_slice(payload.as_bytes());
        let err = Message::read_from(&mut wire.as_slice()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
    }

    #[test]
    fn endpoints_parse_and_display() {
        assert_eq!(
            Endpoint::parse("unix:/tmp/x.sock").unwrap(),
            Endpoint::Unix(PathBuf::from("/tmp/x.sock"))
        );
        assert_eq!(
            Endpoint::parse("tcp:127.0.0.1:0").unwrap(),
            Endpoint::Tcp("127.0.0.1:0".into())
        );
        assert!(Endpoint::parse("http:foo").is_err());
        assert!(Endpoint::parse("unix:").is_err());
        assert!(Endpoint::parse("tcp:nocolon").is_err());
        let e = Endpoint::parse("unix:/a/b.sock").unwrap();
        assert_eq!(Endpoint::parse(&e.to_string()).unwrap(), e);
    }

    #[test]
    fn tcp_listener_reports_its_ephemeral_port() {
        let listener = Endpoint::parse("tcp:127.0.0.1:0")
            .unwrap()
            .listen()
            .unwrap();
        let Endpoint::Tcp(addr) = listener.endpoint() else {
            panic!("tcp endpoint expected");
        };
        assert!(!addr.ends_with(":0"), "real port resolved: {addr}");
        assert!(listener.accept().unwrap().is_none(), "nobody connecting");
    }
}
