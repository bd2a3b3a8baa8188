//! TCP front-end for the serving engine: the ticket protocol over a
//! socket.
//!
//! The PR-5 client API (`Client` / `Ticket` / `Completion`) was shaped
//! like a wire protocol on purpose; this module gives it a real
//! transport so the scheduler can serve clients in other processes (and,
//! eventually, other machines) without changing what it computes:
//!
//! * **Framing** — compact length-prefixed frames: a 4-byte little-endian
//!   payload length (capped at [`MAX_FRAME`]) followed by the binary
//!   encoding of the frame's vendored serde [`Value`] tree (tag byte +
//!   LEB128 varints; floats travel as raw IEEE-754 bits, so labels
//!   received over TCP are **byte-identical** to the in-process
//!   client's). A length claim commits memory only as its bytes arrive:
//!   the reader grows one reused payload buffer in chunks of at most
//!   64 KiB.
//! * **Typed frame codec** — the connections never build that tree. A
//!   private `Wire` trait encodes [`ClientFrame`] / [`ServerFrame`]
//!   straight from the typed data into the frame buffer, emitting exactly
//!   the bytes of `encode_value(&frame.to_value())`, and decodes straight
//!   back into typed frames. Canonical form is required: object keys in
//!   field-declaration order with none missing or extra, each field under
//!   its type's own tag, known variant names, no trailing bytes. Anything
//!   else — and any truncation, oversized claim or bad count — is a
//!   [`WireError`], never a panic. [`encode_value`] / [`decode_value`]
//!   stay as the generic reference codec for arbitrary value trees (item
//!   files, tests, the benchmark); whatever the typed decoder accepts,
//!   `decode_value` + `from_value` decodes to the same frame.
//! * **Multiplexing** — one persistent connection carries many tickets.
//!   The client picks a request id per submission and the server echoes
//!   it in the terminal [`ServerFrame::Completion`] (the embedded
//!   [`Completion`]'s ticket field is rewritten to the request id), so
//!   responses arrive in completion order, not submission order.
//! * **Flow control** — the connection's `Hello { window }` sizes a
//!   server-side per-connection [`Client`](crate::Client) completion
//!   window. When the window is full the connection's reader thread
//!   blocks in `submit_with` and **stops reading the socket**; TCP
//!   backpressure propagates the stall to the remote client, exactly
//!   mirroring how the in-process `CompletionQueue` bounds a local
//!   submitter. [`NetClient`] enforces the same bound locally, so a
//!   well-behaved client never even fills the kernel buffers.
//! * **Lifecycle** — `Goodbye` closes gracefully (outstanding tickets
//!   still resolve and their completions are delivered); an abrupt
//!   disconnect (EOF, reset, malformed frame) cancels every outstanding
//!   ticket of that connection — cancellation already races correctly
//!   against claim/shed via the CAS completion slots, so a worker
//!   mid-label simply completes into a closed socket and the event is
//!   dropped *after* it balanced the ledgers. Either way the
//!   conservation equations and `events_reconcile()` hold, and other
//!   connections keep serving.
//!
//! Synchronously refused submissions (queue full under the reject
//! policy, server shut down) have no in-process completion event — the
//! caller sees `SubmitOutcome::Rejected`. Over the wire every request id
//! must get an answer, so the connection sends
//! [`ServerFrame::Rejected`] instead.

use crate::completion::{Completion, LabelResult, ShedReason};
use crate::server::{AmsServer, Client, ServeReport, SubmitOptions};
use ams_data::ItemTruth;
use ams_models::{Detection, LabelId, ModelId, ModelOutput};
use serde::{Deserialize, Serialize, Value};
use std::collections::HashMap;
use std::io::{BufReader, ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// Hard cap on one frame's payload, bytes. A length prefix above this is
/// a protocol error — the connection closes before allocating anything.
pub const MAX_FRAME: u32 = 16 * 1024 * 1024;

/// Cap on the per-connection completion window a `Hello` may request.
pub const MAX_WINDOW: u64 = 65_536;

/// Maximum nesting depth the value decoder accepts — a crafted payload
/// of nested arrays must error out, not overflow the stack.
const MAX_DEPTH: u32 = 64;

/// How often blocked socket reads and completion waits re-check their
/// stop conditions.
const POLL: Duration = Duration::from_millis(50);

/// Size of each connection's socket read buffer, the step a frame read
/// grows its payload buffer by, and the capacity every per-connection
/// frame buffer is trimmed back to after an unusually large frame.
const BUF_CHUNK: usize = 64 * 1024;

// ---------------------------------------------------------------------------
// Wire errors
// ---------------------------------------------------------------------------

/// Why a wire operation failed. Every failure path through the codec and
/// the connection handlers lands here — malformed input never panics.
#[derive(Debug)]
pub enum WireError {
    /// Socket-level I/O failure.
    Io(std::io::Error),
    /// The peer closed the connection (EOF, possibly mid-frame).
    Closed,
    /// A frame length prefix of zero or above [`MAX_FRAME`].
    FrameTooLarge(u32),
    /// The frame payload did not decode (truncated value, unknown tag,
    /// bad UTF-8, over-deep nesting, trailing bytes, or a well-formed
    /// value of the wrong shape or not in canonical field order).
    Malformed(String),
    /// A well-formed frame that violates the protocol (first frame not
    /// `Hello`, duplicate request id, frame after `Goodbye`).
    Protocol(String),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Io(e) => write!(f, "io error: {e}"),
            WireError::Closed => write!(f, "connection closed"),
            WireError::FrameTooLarge(n) => write!(f, "frame length {n} outside 1..={MAX_FRAME}"),
            WireError::Malformed(m) => write!(f, "malformed frame: {m}"),
            WireError::Protocol(m) => write!(f, "protocol violation: {m}"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<std::io::Error> for WireError {
    fn from(e: std::io::Error) -> Self {
        if e.kind() == ErrorKind::UnexpectedEof {
            WireError::Closed
        } else {
            WireError::Io(e)
        }
    }
}

// ---------------------------------------------------------------------------
// Binary value codec
// ---------------------------------------------------------------------------

const TAG_NULL: u8 = 0x00;
const TAG_FALSE: u8 = 0x01;
const TAG_TRUE: u8 = 0x02;
const TAG_U64: u8 = 0x03;
const TAG_I64: u8 = 0x04;
const TAG_F64: u8 = 0x05;
const TAG_STR: u8 = 0x06;
const TAG_ARRAY: u8 = 0x07;
const TAG_OBJECT: u8 = 0x08;

fn put_varint(out: &mut Vec<u8>, mut n: u64) {
    loop {
        let byte = (n & 0x7f) as u8;
        n >>= 7;
        if n == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Encode one value tree into the compact binary form. Total: every
/// value encodes, and `decode_value` of the result returns an equal tree
/// (floats bit-exactly — they travel as raw IEEE-754 bits, unlike the
/// JSON text path).
pub fn encode_value(v: &Value, out: &mut Vec<u8>) {
    match v {
        Value::Null => out.push(TAG_NULL),
        Value::Bool(false) => out.push(TAG_FALSE),
        Value::Bool(true) => out.push(TAG_TRUE),
        Value::U64(n) => {
            out.push(TAG_U64);
            put_varint(out, *n);
        }
        Value::I64(n) => {
            // ZigZag so small negatives stay small.
            out.push(TAG_I64);
            put_varint(out, ((n << 1) ^ (n >> 63)) as u64);
        }
        Value::F64(f) => {
            out.push(TAG_F64);
            out.extend_from_slice(&f.to_bits().to_le_bytes());
        }
        Value::Str(s) => {
            out.push(TAG_STR);
            put_varint(out, s.len() as u64);
            out.extend_from_slice(s.as_bytes());
        }
        Value::Array(items) => {
            out.push(TAG_ARRAY);
            put_varint(out, items.len() as u64);
            for item in items {
                encode_value(item, out);
            }
        }
        Value::Object(fields) => {
            out.push(TAG_OBJECT);
            put_varint(out, fields.len() as u64);
            for (k, val) in fields {
                put_varint(out, k.len() as u64);
                out.extend_from_slice(k.as_bytes());
                encode_value(val, out);
            }
        }
    }
}

// ams-lint: begin(no-panic) wire decode path — parses hostile bytes; a
// malformed frame must produce WireError::Malformed, never a panic

struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn byte(&mut self) -> Result<u8, WireError> {
        let b = *self
            .buf
            .get(self.pos)
            .ok_or_else(|| WireError::Malformed("truncated value".into()))?;
        self.pos += 1;
        Ok(b)
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        let s = self
            .buf
            .get(self.pos..self.pos.saturating_add(n))
            .ok_or_else(|| WireError::Malformed("truncated value".into()))?;
        self.pos += n;
        Ok(s)
    }

    fn varint(&mut self) -> Result<u64, WireError> {
        let mut n: u64 = 0;
        for shift in (0..64).step_by(7) {
            let b = self.byte()?;
            let low = u64::from(b & 0x7f);
            if shift == 63 && low > 1 {
                return Err(WireError::Malformed("varint overflows u64".into()));
            }
            n |= low << shift;
            if b & 0x80 == 0 {
                return Ok(n);
            }
        }
        Err(WireError::Malformed("varint longer than 10 bytes".into()))
    }

    /// A claimed element count, sanity-bounded by the bytes actually
    /// present (every element costs at least `min_bytes`), so a hostile
    /// length claim cannot drive a huge allocation.
    fn count(&mut self, min_bytes: usize) -> Result<usize, WireError> {
        let n = self.varint()?;
        let ceiling = (self.remaining() / min_bytes.max(1)) as u64;
        if n > ceiling {
            return Err(WireError::Malformed(format!(
                "count {n} exceeds remaining payload"
            )));
        }
        Ok(n as usize)
    }

    fn string(&mut self) -> Result<String, WireError> {
        let len = self.count(1)?;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| WireError::Malformed("invalid utf-8 in string".into()))
    }

    /// Consume one tag byte that must be `want` (the typed decoder's
    /// "this field has that type" check).
    fn tag(&mut self, want: u8) -> Result<(), WireError> {
        match self.byte()? {
            got if got == want => Ok(()),
            got => Err(WireError::Malformed(format!(
                "expected tag {want:#04x}, found {got:#04x}"
            ))),
        }
    }

    fn f64(&mut self) -> Result<f64, WireError> {
        let bytes: [u8; 8] = self
            .take(8)?
            .try_into()
            .map_err(|_| WireError::Malformed("truncated f64".into()))?;
        Ok(f64::from_bits(u64::from_le_bytes(bytes)))
    }

    /// An object header with exactly `fields` entries.
    fn object(&mut self, fields: usize) -> Result<(), WireError> {
        self.tag(TAG_OBJECT)?;
        match self.varint()? {
            n if n == fields as u64 => Ok(()),
            n => Err(WireError::Malformed(format!(
                "object has {n} fields, expected {fields}"
            ))),
        }
    }

    /// The next object key, which must be `name` (canonical field order).
    fn key(&mut self, name: &str) -> Result<(), WireError> {
        let len = self.count(1)?;
        if self.take(len)? == name.as_bytes() {
            Ok(())
        } else {
            Err(WireError::Malformed(format!("expected field `{name}`")))
        }
    }

    /// An externally tagged enum header: a bare name string (unit
    /// variant, `false`) or a one-entry object keyed by the name (variant
    /// with a payload, `true`, the payload follows).
    fn variant(&mut self) -> Result<(bool, &'a [u8]), WireError> {
        let payload = match self.byte()? {
            TAG_STR => false,
            TAG_OBJECT if self.varint()? == 1 => true,
            _ => return Err(WireError::Malformed("expected an enum variant".into())),
        };
        let len = self.count(1)?;
        Ok((payload, self.take(len)?))
    }

    fn value(&mut self, depth: u32) -> Result<Value, WireError> {
        if depth > MAX_DEPTH {
            return Err(WireError::Malformed("value nested too deeply".into()));
        }
        match self.byte()? {
            TAG_NULL => Ok(Value::Null),
            TAG_FALSE => Ok(Value::Bool(false)),
            TAG_TRUE => Ok(Value::Bool(true)),
            TAG_U64 => Ok(Value::U64(self.varint()?)),
            TAG_I64 => {
                let z = self.varint()?;
                Ok(Value::I64(((z >> 1) as i64) ^ -((z & 1) as i64)))
            }
            TAG_F64 => Ok(Value::F64(self.f64()?)),
            TAG_STR => Ok(Value::Str(self.string()?)),
            TAG_ARRAY => {
                let n = self.count(1)?;
                let mut items = Vec::with_capacity(n);
                for _ in 0..n {
                    items.push(self.value(depth + 1)?);
                }
                Ok(Value::Array(items))
            }
            TAG_OBJECT => {
                let n = self.count(2)?;
                let mut fields = Vec::with_capacity(n);
                for _ in 0..n {
                    let key = self.string()?;
                    let val = self.value(depth + 1)?;
                    fields.push((key, val));
                }
                Ok(Value::Object(fields))
            }
            tag => Err(WireError::Malformed(format!(
                "unknown value tag {tag:#04x}"
            ))),
        }
    }
}

/// Decode one value tree from the compact binary form. Strict: trailing
/// bytes after the root value are an error, and no input panics.
pub fn decode_value(buf: &[u8]) -> Result<Value, WireError> {
    let mut cur = Cursor { buf, pos: 0 };
    let v = cur.value(0)?;
    if cur.remaining() != 0 {
        return Err(WireError::Malformed(format!(
            "{} trailing bytes after value",
            cur.remaining()
        )));
    }
    Ok(v)
}

// ams-lint: end(no-panic)

// ---------------------------------------------------------------------------
// Frames
// ---------------------------------------------------------------------------

/// One submission travelling client → server: the scene content plus the
/// ticket's own economics. `id` is chosen by the client and echoed in
/// the terminal [`ServerFrame`]; it must be unique among the
/// connection's in-flight requests.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct WireRequest {
    /// Client-chosen request id, echoed in the completion.
    pub id: u64,
    /// The scene to label (full content — the server fingerprints it for
    /// the cache and affinity routing exactly like a local submission).
    pub item: ItemTruth,
    /// SLO class (aggregation bucket; clamped server-side).
    pub class: usize,
    /// Optional per-ticket deadline override, µs.
    pub deadline_us: Option<u64>,
    /// Optional per-ticket value override.
    pub value: Option<f64>,
}

/// Frames travelling client → server.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum ClientFrame {
    /// Mandatory first frame: size the connection's completion window
    /// (clamped to `1..=`[`MAX_WINDOW`]). The window is the flow
    /// control — the server stops reading the socket while it is full.
    Hello {
        /// Requested window: maximum in-flight (unanswered) requests.
        window: u64,
    },
    /// Submit one item for labeling.
    Request(WireRequest),
    /// Cancel an in-flight request by its client-chosen id. Exactly like
    /// [`Ticket::cancel`](crate::Ticket::cancel): wins only while the
    /// request is unclaimed, and the terminal completion reports what
    /// actually happened.
    Cancel {
        /// The client-chosen id of the request to cancel.
        id: u64,
    },
    /// Graceful close: the server stops reading, lets every outstanding
    /// ticket resolve, delivers the remaining completions, and closes.
    Goodbye,
}

/// Frames travelling server → client.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum ServerFrame {
    /// The terminal event of one request. The embedded completion's
    /// ticket field carries the **client-chosen request id**, not the
    /// server-internal ticket id.
    Completion(Completion),
    /// The submission was refused synchronously (shard queue full under
    /// the reject policy, or the server is shutting down): no ticket was
    /// issued and no completion will follow. The in-process analogue is
    /// `SubmitOutcome::Rejected`.
    Rejected {
        /// The client-chosen id of the refused request.
        id: u64,
    },
}

/// What [`NetClient::recv`] yields: a terminal completion (with the
/// ticket field already carrying the client-chosen request id) or a
/// synchronous rejection.
#[derive(Debug, Clone)]
pub enum NetEvent {
    /// The request's terminal event; `completion.ticket()` is the
    /// client-chosen request id.
    Completion(Completion),
    /// The request was refused synchronously; no labels exist.
    Rejected {
        /// The client-chosen id of the refused request.
        id: u64,
    },
}

impl NetEvent {
    /// The client-chosen request id this event answers.
    pub fn id(&self) -> u64 {
        match self {
            NetEvent::Completion(c) => c.ticket(),
            NetEvent::Rejected { id } => *id,
        }
    }

    /// The completion, when the request got one.
    pub fn completion(&self) -> Option<&Completion> {
        match self {
            NetEvent::Completion(c) => Some(c),
            NetEvent::Rejected { .. } => None,
        }
    }
}

/// Rewrite the ticket id inside a completion to the client-chosen
/// request id before it crosses the wire.
fn with_wire_id(mut ev: Completion, id: u64) -> Completion {
    match &mut ev {
        Completion::Labeled(r) => r.ticket = id,
        Completion::Shed { ticket, .. } | Completion::Cancelled { ticket, .. } => *ticket = id,
    }
    ev
}

// ---------------------------------------------------------------------------
// Typed frame codec
// ---------------------------------------------------------------------------

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_varint(out, s.len() as u64);
    out.extend_from_slice(s.as_bytes());
}

/// The header of an externally tagged variant with a payload: a
/// one-entry object keyed by the variant name (the payload follows).
fn put_variant(out: &mut Vec<u8>, name: &str) {
    out.push(TAG_OBJECT);
    put_varint(out, 1);
    put_str(out, name);
}

/// Encode named fields — local bindings named after them — as an object
/// in the listed order; the keys are the binding names.
macro_rules! put_fields {
    ($out:ident; $($field:ident),+) => {
        $out.push(TAG_OBJECT);
        put_varint($out, [$(stringify!($field)),+].len() as u64);
        $(
            put_str($out, stringify!($field));
            $field.put($out);
        )+
    };
}

// ams-lint: begin(no-panic) typed frame decoder — parses hostile bytes
// straight into frames; a malformed frame must produce
// WireError::Malformed, never a panic

/// A type the frame codec carries without a value tree: `put` appends
/// exactly the bytes of `encode_value(&self.to_value())`, and `get`
/// decodes the canonical form of those bytes (and nothing else) back.
trait Wire: Sized {
    fn put(&self, out: &mut Vec<u8>);
    fn get(cur: &mut Cursor<'_>) -> Result<Self, WireError>;
}

/// Decode the matching object header and each named field, in the
/// listed order, into local bindings named after them.
macro_rules! get_fields {
    ($cur:ident; $($field:ident),+) => {
        $cur.object([$(stringify!($field)),+].len())?;
        $(
            $cur.key(stringify!($field))?;
            let $field = Wire::get($cur)?;
        )+
    };
}

/// `Wire` for named-field structs, keyed and ordered like the serde
/// derive. The destructuring is exhaustive, so a new field that is not
/// listed here is a compile error, not a silently dropped field.
macro_rules! wire_struct {
    ($($ty:ident { $($field:ident),+ $(,)? })+) => {$(
        impl Wire for $ty {
            fn put(&self, out: &mut Vec<u8>) {
                let $ty { $($field),+ } = self;
                put_fields!(out; $($field),+);
            }
            fn get(cur: &mut Cursor<'_>) -> Result<Self, WireError> {
                get_fields!(cur; $($field),+);
                Ok($ty { $($field),+ })
            }
        }
    )+};
}

/// `Wire` for externally tagged enums: unit variants travel as a name
/// string, newtype variants as `{name: payload}`, struct variants as
/// `{name: {fields}}`. The `match` in `put` is exhaustive, so an unlisted
/// variant is a compile error.
macro_rules! wire_enum {
    ($ty:ident {
        unit: [$($unit:ident),*],
        newtype: [$($newtype:ident),*],
        named: [$($named:ident { $($field:ident),+ }),*] $(,)?
    }) => {
        impl Wire for $ty {
            fn put(&self, out: &mut Vec<u8>) {
                match self {
                    $($ty::$unit => {
                        out.push(TAG_STR);
                        put_str(out, stringify!($unit));
                    })*
                    $($ty::$newtype(inner) => {
                        put_variant(out, stringify!($newtype));
                        inner.put(out);
                    })*
                    $($ty::$named { $($field),+ } => {
                        put_variant(out, stringify!($named));
                        put_fields!(out; $($field),+);
                    })*
                }
            }
            fn get(cur: &mut Cursor<'_>) -> Result<Self, WireError> {
                let (payload, name) = cur.variant()?;
                $(if !payload && name == stringify!($unit).as_bytes() {
                    return Ok($ty::$unit);
                })*
                $(if payload && name == stringify!($newtype).as_bytes() {
                    return Ok($ty::$newtype(Wire::get(cur)?));
                })*
                $(if payload && name == stringify!($named).as_bytes() {
                    get_fields!(cur; $($field),+);
                    return Ok($ty::$named { $($field),+ });
                })*
                Err(WireError::Malformed(format!(
                    "unknown {} variant `{}`",
                    stringify!($ty),
                    String::from_utf8_lossy(name)
                )))
            }
        }
    };
}

impl Wire for u64 {
    fn put(&self, out: &mut Vec<u8>) {
        out.push(TAG_U64);
        put_varint(out, *self);
    }
    fn get(cur: &mut Cursor<'_>) -> Result<Self, WireError> {
        cur.tag(TAG_U64)?;
        cur.varint()
    }
}

macro_rules! wire_narrow_uint {
    ($($t:ty),+) => {$(
        impl Wire for $t {
            fn put(&self, out: &mut Vec<u8>) {
                (*self as u64).put(out);
            }
            fn get(cur: &mut Cursor<'_>) -> Result<Self, WireError> {
                let n = u64::get(cur)?;
                <$t>::try_from(n)
                    .map_err(|_| WireError::Malformed(format!("integer {n} out of range")))
            }
        }
    )+};
}
wire_narrow_uint!(usize, u16, u8);

impl Wire for f64 {
    fn put(&self, out: &mut Vec<u8>) {
        out.push(TAG_F64);
        out.extend_from_slice(&self.to_bits().to_le_bytes());
    }
    fn get(cur: &mut Cursor<'_>) -> Result<Self, WireError> {
        cur.tag(TAG_F64)?;
        cur.f64()
    }
}

impl Wire for f32 {
    fn put(&self, out: &mut Vec<u8>) {
        f64::from(*self).put(out);
    }
    fn get(cur: &mut Cursor<'_>) -> Result<Self, WireError> {
        Ok(f64::get(cur)? as f32)
    }
}

impl Wire for bool {
    fn put(&self, out: &mut Vec<u8>) {
        out.push(if *self { TAG_TRUE } else { TAG_FALSE });
    }
    fn get(cur: &mut Cursor<'_>) -> Result<Self, WireError> {
        match cur.byte()? {
            TAG_FALSE => Ok(false),
            TAG_TRUE => Ok(true),
            tag => Err(WireError::Malformed(format!(
                "expected a bool, found tag {tag:#04x}"
            ))),
        }
    }
}

impl<T: Wire> Wire for Option<T> {
    fn put(&self, out: &mut Vec<u8>) {
        match self {
            Some(x) => x.put(out),
            None => out.push(TAG_NULL),
        }
    }
    fn get(cur: &mut Cursor<'_>) -> Result<Self, WireError> {
        if cur.buf.get(cur.pos) == Some(&TAG_NULL) {
            cur.pos += 1;
            return Ok(None);
        }
        T::get(cur).map(Some)
    }
}

impl<T: Wire> Wire for Vec<T> {
    fn put(&self, out: &mut Vec<u8>) {
        out.push(TAG_ARRAY);
        put_varint(out, self.len() as u64);
        for x in self {
            x.put(out);
        }
    }
    fn get(cur: &mut Cursor<'_>) -> Result<Self, WireError> {
        cur.tag(TAG_ARRAY)?;
        let n = cur.count(1)?;
        // The count is bounded by the bytes left, not by what one element
        // occupies in memory, so preallocate only a bounded prefix.
        let mut items = Vec::with_capacity(n.min(1024));
        for _ in 0..n {
            items.push(T::get(cur)?);
        }
        Ok(items)
    }
}

impl<A: Wire, B: Wire> Wire for (A, B) {
    fn put(&self, out: &mut Vec<u8>) {
        out.push(TAG_ARRAY);
        put_varint(out, 2);
        self.0.put(out);
        self.1.put(out);
    }
    fn get(cur: &mut Cursor<'_>) -> Result<Self, WireError> {
        cur.tag(TAG_ARRAY)?;
        match cur.varint()? {
            2 => Ok((A::get(cur)?, B::get(cur)?)),
            n => Err(WireError::Malformed(format!(
                "expected a pair, found {n} items"
            ))),
        }
    }
}

/// Transparent newtypes travel as their inner value.
macro_rules! wire_newtype {
    ($($ty:ident),+) => {$(
        impl Wire for $ty {
            fn put(&self, out: &mut Vec<u8>) {
                let $ty(inner) = self;
                inner.put(out);
            }
            fn get(cur: &mut Cursor<'_>) -> Result<Self, WireError> {
                Wire::get(cur).map($ty)
            }
        }
    )+};
}
wire_newtype!(LabelId, ModelId);

wire_struct! {
    WireRequest { id, item, class, deadline_us, value }
    ItemTruth { scene_id, outputs, valuable, total_value, model_value }
    ModelOutput { model, detections }
    Detection { label, confidence }
    LabelResult {
        ticket, class, labels, executed, label_value, banked_value, recall,
        queue_wait_us, execute_us, deadline_met,
    }
}

wire_enum! { ShedReason {
    unit: [Admission, Overflow, Deadline, Drain],
    newtype: [],
    named: [],
} }

wire_enum! { Completion {
    unit: [],
    newtype: [Labeled],
    named: [Shed { ticket, class, reason }, Cancelled { ticket, class }],
} }

wire_enum! { ClientFrame {
    unit: [Goodbye],
    newtype: [Request],
    named: [Hello { window }, Cancel { id }],
} }

wire_enum! { ServerFrame {
    unit: [],
    newtype: [Completion],
    named: [Rejected { id }],
} }

/// Decode one whole typed payload: strict, no trailing bytes.
fn decode_frame<T: Wire>(buf: &[u8]) -> Result<T, WireError> {
    let mut cur = Cursor { buf, pos: 0 };
    let frame = T::get(&mut cur)?;
    match cur.remaining() {
        0 => Ok(frame),
        n => Err(WireError::Malformed(format!(
            "{n} trailing bytes after frame"
        ))),
    }
}

// ams-lint: end(no-panic)

/// Encode `ClientFrame::Request` from borrowed parts — the same bytes as
/// the owned frame, without cloning the item into a `WireRequest`.
fn put_request_frame(
    out: &mut Vec<u8>,
    id: u64,
    item: &ItemTruth,
    SubmitOptions {
        class,
        deadline_us,
        value,
    }: SubmitOptions,
) {
    put_variant(out, "Request");
    put_fields!(out; id, item, class, deadline_us, value);
}

impl ClientFrame {
    /// Append this frame's payload: byte-identical to
    /// `encode_value(&self.to_value(), out)`, without the value tree.
    pub fn encode(&self, out: &mut Vec<u8>) {
        self.put(out);
    }

    /// Decode one payload with the strict typed decoder (canonical form
    /// only, no trailing bytes). Total: any input returns a frame or a
    /// [`WireError::Malformed`].
    pub fn decode(buf: &[u8]) -> Result<Self, WireError> {
        decode_frame(buf)
    }
}

impl ServerFrame {
    /// Append this frame's payload: byte-identical to
    /// `encode_value(&self.to_value(), out)`, without the value tree.
    pub fn encode(&self, out: &mut Vec<u8>) {
        self.put(out);
    }

    /// Decode one payload with the strict typed decoder (canonical form
    /// only, no trailing bytes). Total: any input returns a frame or a
    /// [`WireError::Malformed`].
    pub fn decode(buf: &[u8]) -> Result<Self, WireError> {
        decode_frame(buf)
    }
}

// ---------------------------------------------------------------------------
// Frame I/O
// ---------------------------------------------------------------------------

/// The write half of a connection: one reused buffer, each frame encoded
/// straight into it behind a length prefix patched in place, then sent
/// with a single `write_all`.
struct FrameWriter {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl FrameWriter {
    fn new(stream: TcpStream) -> Self {
        Self {
            stream,
            buf: Vec::new(),
        }
    }

    /// Write one frame whose payload `encode` appends.
    fn send(&mut self, encode: impl FnOnce(&mut Vec<u8>)) -> Result<(), WireError> {
        self.buf.clear();
        self.buf.extend_from_slice(&[0; 4]);
        encode(&mut self.buf);
        let len = u32::try_from(self.buf.len() - 4).unwrap_or(u32::MAX);
        let res = if len > MAX_FRAME {
            Err(WireError::FrameTooLarge(len))
        } else {
            self.buf[..4].copy_from_slice(&len.to_le_bytes());
            self.stream.write_all(&self.buf).map_err(WireError::from)
        };
        self.buf.clear();
        self.buf.shrink_to(BUF_CHUNK);
        res
    }
}

// ams-lint: begin(no-panic) frame read path — feeds raw socket bytes to
// the decoder; connection handlers must fail with WireError, not die

/// `read_exact` that tolerates read timeouts (re-checking `stop`) so a
/// server-side reader can notice shutdown while blocked, without ever
/// losing partially read bytes.
fn read_exact_interruptible(
    stream: &mut impl Read,
    buf: &mut [u8],
    stop: &AtomicBool,
) -> Result<(), WireError> {
    let mut filled = 0;
    while filled < buf.len() {
        // ams-lint: allow(no-panic) filled < buf.len() by the loop condition
        match stream.read(&mut buf[filled..]) {
            Ok(0) => return Err(WireError::Closed),
            Ok(n) => filled += n,
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                if stop.load(Ordering::Relaxed) {
                    return Err(WireError::Closed);
                }
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(e.into()),
        }
    }
    Ok(())
}

/// The read half of a connection: a bounded socket read buffer plus one
/// payload buffer reused across frames.
struct FrameReader<R> {
    inner: BufReader<R>,
    payload: Vec<u8>,
}

impl<R: Read> FrameReader<R> {
    fn new(inner: R) -> Self {
        Self {
            inner: BufReader::with_capacity(BUF_CHUNK, inner),
            payload: Vec::new(),
        }
    }

    /// Read and decode one typed frame.
    fn read<T: Wire>(&mut self, stop: &AtomicBool) -> Result<T, WireError> {
        self.fill(stop)?;
        let frame = decode_frame(&self.payload);
        self.payload.clear();
        self.payload.shrink_to(BUF_CHUNK);
        frame
    }

    /// Read one frame's payload into `self.payload`. The length claim is
    /// checked against [`MAX_FRAME`] but committed only as bytes arrive:
    /// the buffer grows at most [`BUF_CHUNK`] past what was received.
    fn fill(&mut self, stop: &AtomicBool) -> Result<(), WireError> {
        let mut len = [0u8; 4];
        read_exact_interruptible(&mut self.inner, &mut len, stop)?;
        let n = u32::from_le_bytes(len);
        if n == 0 || n > MAX_FRAME {
            return Err(WireError::FrameTooLarge(n));
        }
        let n = n as usize;
        self.payload.clear();
        while self.payload.len() < n {
            let start = self.payload.len();
            self.payload.resize(start + (n - start).min(BUF_CHUNK), 0);
            let chunk = self.payload.get_mut(start..).unwrap_or_default();
            read_exact_interruptible(&mut self.inner, chunk, stop)?;
        }
        Ok(())
    }
}

// ams-lint: end(no-panic)

// ---------------------------------------------------------------------------
// Server
// ---------------------------------------------------------------------------

/// Per-connection request-id bookkeeping, shared between the reader
/// (inserts after `submit_with` returns the ticket) and the writer
/// (resolves ticket ids back to request ids as completions arrive).
///
/// A completion can be delivered *during* `submit_with` (cache hit,
/// admission shed) — before the reader has inserted the mapping — so the
/// writer waits on the condvar for a mapping it cannot find yet.
#[derive(Default)]
struct ConnMaps {
    state: Mutex<ConnMapState>,
    mapped: Condvar,
}

#[derive(Default)]
struct ConnMapState {
    /// request id → ticket (for `Cancel` frames and disconnect
    /// cancel-all).
    by_req: HashMap<u64, crate::Ticket>,
    /// ticket id → request id (for echoing completions).
    req_of: HashMap<u64, u64>,
}

impl ConnMaps {
    /// Register a request-id ↔ ticket pair. On a duplicate request id
    /// the ticket is handed back so the caller can cancel it.
    fn insert(&self, req_id: u64, ticket: crate::Ticket) -> Result<(), crate::Ticket> {
        let mut st = self.state.lock().expect("conn maps");
        if st.by_req.contains_key(&req_id) {
            return Err(ticket);
        }
        st.req_of.insert(ticket.id(), req_id);
        st.by_req.insert(req_id, ticket);
        drop(st);
        self.mapped.notify_all();
        Ok(())
    }

    /// Resolve a ticket id to its request id, waiting for the reader's
    /// insert when the completion outran it. Returns `None` only if the
    /// mapping never appears (reader died before inserting — the ticket
    /// then resolved without a wire identity and the event is dropped;
    /// the socket is gone in that case anyway).
    fn wait_req_of(&self, ticket_id: u64, reader_done: &AtomicBool) -> Option<u64> {
        let mut st = self.state.lock().expect("conn maps");
        loop {
            if let Some(req) = st.req_of.get(&ticket_id) {
                return Some(*req);
            }
            if reader_done.load(Ordering::Acquire) {
                return None;
            }
            let (guard, _) = self.mapped.wait_timeout(st, POLL).expect("conn maps");
            st = guard;
        }
    }

    fn remove(&self, ticket_id: u64) {
        let mut st = self.state.lock().expect("conn maps");
        if let Some(req) = st.req_of.remove(&ticket_id) {
            st.by_req.remove(&req);
        }
    }

    fn ticket_of(&self, req_id: u64) -> Option<crate::Ticket> {
        self.state
            .lock()
            .expect("conn maps")
            .by_req
            .get(&req_id)
            .cloned()
    }

    fn cancel_all(&self) {
        let tickets: Vec<crate::Ticket> = self
            .state
            .lock()
            .expect("conn maps")
            .by_req
            .values()
            .cloned()
            .collect();
        // Cancel outside the lock: each cancel delivers a completion the
        // writer may race to translate, and translation takes this lock.
        for t in &tickets {
            t.cancel();
        }
    }
}

/// The TCP front-end: a blocking `std::net` listener that serves the
/// ticket protocol on top of an [`AmsServer`]. One reader/writer thread
/// pair per connection; see the module docs for the protocol.
///
/// ```no_run
/// # use ams_serve::net::NetServer;
/// # use ams_serve::server::AmsServer;
/// # fn demo(server: AmsServer) -> Result<(), Box<dyn std::error::Error>> {
/// let net = NetServer::bind(server, "127.0.0.1:0")?;
/// let addr = net.local_addr();
/// // ... clients connect to `addr` from other processes ...
/// let report = net.shutdown();
/// # Ok(()) }
/// ```
pub struct NetServer {
    server: Arc<AmsServer>,
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
    conns: Arc<Mutex<Vec<JoinHandle<()>>>>,
}

impl NetServer {
    /// Bind a listener and start accepting connections on a background
    /// thread. Bind to port 0 for an ephemeral port; [`NetServer::local_addr`]
    /// reports the actual address.
    pub fn bind(server: AmsServer, addr: impl ToSocketAddrs) -> std::io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let server = Arc::new(server);
        let stop = Arc::new(AtomicBool::new(false));
        let conns: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));
        let accept = {
            let server = Arc::clone(&server);
            let stop = Arc::clone(&stop);
            let conns = Arc::clone(&conns);
            std::thread::spawn(move || {
                for stream in listener.incoming() {
                    if stop.load(Ordering::Acquire) {
                        break;
                    }
                    let Ok(stream) = stream else { continue };
                    let server = Arc::clone(&server);
                    let conn_stop = Arc::clone(&stop);
                    let handle =
                        std::thread::spawn(move || handle_connection(server, stream, conn_stop));
                    // Reap the connections that already ended (joining a
                    // finished thread does not block), so the registry
                    // holds live connections, not every one ever accepted.
                    let mut conns = conns.lock().expect("conn registry");
                    for done in conns.extract_if(.., |h| h.is_finished()) {
                        let _ = done.join();
                    }
                    conns.push(handle);
                }
            })
        };
        Ok(Self {
            server,
            addr,
            stop,
            accept: Some(accept),
            conns,
        })
    }

    /// The address the listener is bound to.
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The wrapped server, for live metrics and local submissions.
    pub fn server(&self) -> &AmsServer {
        &self.server
    }

    /// Stop accepting, disconnect-cancel any connection still open, join
    /// every connection thread, then drain and shut down the inner
    /// server, returning its final report. The conservation equations
    /// hold across everything every connection ever submitted.
    pub fn shutdown(mut self) -> ServeReport {
        self.stop.store(true, Ordering::Release);
        // Wake the accept loop with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        let handles: Vec<JoinHandle<()>> =
            std::mem::take(&mut *self.conns.lock().expect("conn registry"));
        for h in handles {
            let _ = h.join();
        }
        Arc::try_unwrap(self.server)
            .ok()
            .expect("all connection threads joined")
            .shutdown()
    }
}

/// One connection: read `Hello`, open a window-sized in-process client,
/// then pump frames until goodbye/disconnect. The reader thread is the
/// current thread; completions are written back by a spawned writer.
fn handle_connection(server: Arc<AmsServer>, stream: TcpStream, stop: Arc<AtomicBool>) {
    let _ = stream.set_nodelay(true);
    // Timeouts make every blocking read re-check `stop`, so shutdown can
    // interrupt idle connections; `read_exact_interruptible` preserves
    // partial reads across them.
    let _ = stream.set_read_timeout(Some(POLL));
    let Ok(writer_stream) = stream.try_clone() else {
        return;
    };
    let mut reader = FrameReader::new(stream);

    // The handshake sizes the window; anything else is a protocol error.
    let window = match reader.read::<ClientFrame>(&stop) {
        Ok(ClientFrame::Hello { window }) => window.clamp(1, MAX_WINDOW) as usize,
        _ => return,
    };
    let client = server.client_with_capacity(window);
    drop(server); // the Arc clone; the listener keeps the server alive

    let maps = Arc::new(ConnMaps::default());
    let reader_done = Arc::new(AtomicBool::new(false));
    // Both threads write frames: the writer sends completions, the
    // reader sends synchronous rejections. Frames are serialized under
    // this lock so they never interleave.
    let out = Arc::new(Mutex::new(
        writer_stream.try_clone().ok().map(FrameWriter::new),
    ));

    let writer = {
        let client = client.clone();
        let maps = Arc::clone(&maps);
        let reader_done = Arc::clone(&reader_done);
        let out = Arc::clone(&out);
        std::thread::spawn(move || {
            loop {
                match client.recv_timeout(POLL) {
                    Some(ev) => {
                        let ticket_id = ev.ticket();
                        if let Some(req_id) = maps.wait_req_of(ticket_id, &reader_done) {
                            let frame = ServerFrame::Completion(with_wire_id(ev, req_id));
                            // A dead socket is fine: the events still
                            // drain so the window frees and the ledgers
                            // balance; only the delivery is lost.
                            if let Some(w) = out.lock().expect("conn writer").as_mut() {
                                let _ = w.send(|buf| frame.encode(buf));
                            }
                        }
                        maps.remove(ticket_id);
                    }
                    None => {
                        if reader_done.load(Ordering::Acquire) && client.outstanding() == 0 {
                            return;
                        }
                    }
                }
            }
        })
    };

    // Reader loop. Any exit except `Goodbye` is an abrupt disconnect:
    // cancel every outstanding ticket of this connection.
    let mut graceful = false;
    while let Ok(frame) = reader.read::<ClientFrame>(&stop) {
        match frame {
            ClientFrame::Hello { .. } => break, // duplicate handshake
            ClientFrame::Goodbye => {
                graceful = true;
                break;
            }
            ClientFrame::Cancel { id } => {
                if let Some(t) = maps.ticket_of(id) {
                    t.cancel();
                }
            }
            ClientFrame::Request(req) => {
                let opts = SubmitOptions {
                    class: req.class,
                    deadline_us: req.deadline_us,
                    value: req.value,
                };
                // This is the flow control: with the window full,
                // `submit_with` blocks and the socket goes unread.
                let outcome = client.submit_with(Arc::new(req.item), opts);
                match outcome.ticket() {
                    Some(ticket) => {
                        if let Err(dup) = maps.insert(req.id, ticket) {
                            // Duplicate id: the just-issued ticket is
                            // cancelled (its event drains unsent) and
                            // the connection dies as a protocol error.
                            dup.cancel();
                            break;
                        }
                    }
                    None => {
                        let frame = ServerFrame::Rejected { id: req.id };
                        if let Some(w) = out.lock().expect("conn writer").as_mut() {
                            let _ = w.send(|buf| frame.encode(buf));
                        }
                    }
                }
            }
        }
    }
    if !graceful {
        maps.cancel_all();
    }
    reader_done.store(true, Ordering::Release);
    // Wake the writer so it sees `reader_done` now, not a POLL later.
    client.wake();
    let _ = writer.join();
    let _ = writer_stream.shutdown(std::net::Shutdown::Both);
}

// ---------------------------------------------------------------------------
// Client
// ---------------------------------------------------------------------------

/// The remote mirror of the in-process [`Client`]: same submit surface
/// (`submit` / `submit_class` / `submit_with`), same bounded-window
/// semantics (`submit` blocks while `window` requests are in flight),
/// same drain-loop termination (`recv` returns `Ok(None)` at zero
/// outstanding). The differences forced by the transport: submissions
/// return the request id instead of a `Ticket` (cancellation goes
/// through [`NetClient::cancel`] with that id), admission outcomes
/// arrive asynchronously ([`NetEvent::Rejected`] instead of a
/// synchronous `SubmitOutcome::Rejected`), and every call can fail with
/// a [`WireError`].
pub struct NetClient {
    write: Mutex<FrameWriter>,
    read: Mutex<FrameReader<TcpStream>>,
    window: usize,
    state: Mutex<NcState>,
    not_full: Condvar,
    /// Never set client-side; [`FrameReader::read`] wants a stop flag.
    no_stop: AtomicBool,
}

#[derive(Default)]
struct NcState {
    outstanding: usize,
    next_id: u64,
    goodbye: bool,
}

impl NetClient {
    /// Connect with the default window ([`Client::DEFAULT_CAPACITY`]).
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Self, WireError> {
        Self::connect_with_window(addr, Client::DEFAULT_CAPACITY)
    }

    /// Connect and size the completion window: at most `window` requests
    /// in flight (submitted, their events not yet received); `submit`
    /// blocks past that until `recv` drains. The server clamps to
    /// `1..=`[`MAX_WINDOW`] and sizes its per-connection window the
    /// same, which is the wire's flow control.
    pub fn connect_with_window(addr: impl ToSocketAddrs, window: usize) -> Result<Self, WireError> {
        let stream = TcpStream::connect(addr).map_err(WireError::Io)?;
        let _ = stream.set_nodelay(true);
        let read = FrameReader::new(stream.try_clone().map_err(WireError::Io)?);
        let mut write = FrameWriter::new(stream);
        let window = (window as u64).clamp(1, MAX_WINDOW) as usize;
        let hello = ClientFrame::Hello {
            window: window as u64,
        };
        write.send(|buf| hello.encode(buf))?;
        Ok(Self {
            write: Mutex::new(write),
            read: Mutex::new(read),
            window,
            state: Mutex::new(NcState::default()),
            not_full: Condvar::new(),
            no_stop: AtomicBool::new(false),
        })
    }

    /// Submit one item (class 0, class-default economics), returning its
    /// request id. Blocks while the window is full.
    pub fn submit(&self, item: Arc<ItemTruth>) -> Result<u64, WireError> {
        self.submit_with(item, SubmitOptions::default())
    }

    /// [`NetClient::submit`] with an explicit SLO class.
    pub fn submit_class(&self, item: Arc<ItemTruth>, class: usize) -> Result<u64, WireError> {
        self.submit_with(item, SubmitOptions::class(class))
    }

    /// [`NetClient::submit`] with full per-ticket economics, mirroring
    /// [`Client::submit_with`].
    pub fn submit_with(&self, item: Arc<ItemTruth>, opts: SubmitOptions) -> Result<u64, WireError> {
        let id = {
            let mut st = self.state.lock().expect("net client");
            if st.goodbye {
                return Err(WireError::Protocol("submit after goodbye".into()));
            }
            while st.outstanding >= self.window {
                st = self.not_full.wait(st).expect("net client");
            }
            st.outstanding += 1;
            let id = st.next_id;
            st.next_id += 1;
            id
        };
        let res = self
            .write
            .lock()
            .expect("net client write")
            .send(|buf| put_request_frame(buf, id, &item, opts));
        if let Err(e) = res {
            // The request never left: release its window slot.
            let mut st = self.state.lock().expect("net client");
            st.outstanding -= 1;
            drop(st);
            self.not_full.notify_one();
            return Err(e);
        }
        Ok(id)
    }

    /// Request cancellation of an in-flight request. Exactly like
    /// [`Ticket::cancel`](crate::Ticket::cancel), the race is resolved
    /// server-side; the terminal event reports what actually happened.
    pub fn cancel(&self, id: u64) -> Result<(), WireError> {
        self.write
            .lock()
            .expect("net client write")
            .send(|buf| ClientFrame::Cancel { id }.encode(buf))
    }

    /// Blocking receive of the next terminal event, in server delivery
    /// order. Returns `Ok(None)` when nothing is outstanding — so a
    /// drain loop terminates, mirroring [`Client::recv`].
    pub fn recv(&self) -> Result<Option<NetEvent>, WireError> {
        if self.state.lock().expect("net client").outstanding == 0 {
            return Ok(None);
        }
        let frame = self
            .read
            .lock()
            .expect("net client read")
            .read::<ServerFrame>(&self.no_stop)?;
        let ev = match frame {
            ServerFrame::Completion(c) => NetEvent::Completion(c),
            ServerFrame::Rejected { id } => NetEvent::Rejected { id },
        };
        let mut st = self.state.lock().expect("net client");
        st.outstanding = st.outstanding.saturating_sub(1);
        drop(st);
        self.not_full.notify_one();
        Ok(Some(ev))
    }

    /// Receive every remaining outstanding event (blocking), mirroring a
    /// full in-process drain loop.
    pub fn drain(&self) -> Result<Vec<NetEvent>, WireError> {
        let mut events = Vec::new();
        while let Some(ev) = self.recv()? {
            events.push(ev);
        }
        Ok(events)
    }

    /// Requests in flight: submitted, their events not yet received.
    pub fn outstanding(&self) -> usize {
        self.state.lock().expect("net client").outstanding
    }

    /// The window capacity.
    pub fn capacity(&self) -> usize {
        self.window
    }

    /// Graceful close: tell the server to stop reading and let every
    /// outstanding request resolve. Further submissions error; `recv`
    /// keeps delivering until the window drains.
    pub fn goodbye(&self) -> Result<(), WireError> {
        let mut st = self.state.lock().expect("net client");
        if st.goodbye {
            return Ok(());
        }
        st.goodbye = true;
        drop(st);
        self.write
            .lock()
            .expect("net client write")
            .send(|buf| ClientFrame::Goodbye.encode(buf))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(v: Value) {
        let mut buf = Vec::new();
        encode_value(&v, &mut buf);
        let back = decode_value(&buf).expect("round trip decodes");
        // Debug compare instead of PartialEq so NaN round trips count.
        assert_eq!(format!("{back:?}"), format!("{v:?}"));
        // Float bit-exactness is the whole point of the binary codec.
        if let (Value::F64(a), Value::F64(b)) = (&v, &back) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn codec_round_trips_scalars_and_containers() {
        round_trip(Value::Null);
        round_trip(Value::Bool(true));
        round_trip(Value::U64(u64::MAX));
        round_trip(Value::I64(-1));
        round_trip(Value::I64(i64::MIN));
        round_trip(Value::F64(0.1 + 0.2));
        round_trip(Value::F64(f64::NAN)); // bit-compare via to_bits path
        round_trip(Value::Str("héllo".into()));
        round_trip(Value::Array(vec![Value::U64(1), Value::Str("x".into())]));
        round_trip(Value::Object(vec![
            ("a".into(), Value::Null),
            ("b".into(), Value::Array(vec![Value::F64(1.5)])),
        ]));
    }

    #[test]
    fn decoder_rejects_garbage_without_panicking() {
        assert!(decode_value(&[]).is_err());
        assert!(decode_value(&[0xff]).is_err());
        assert!(decode_value(&[TAG_STR, 0x05, b'a']).is_err()); // truncated string
        assert!(decode_value(&[TAG_ARRAY, 0xff, 0xff, 0xff, 0x7f]).is_err()); // huge count
        assert!(decode_value(&[TAG_NULL, TAG_NULL]).is_err()); // trailing bytes
        let deep: Vec<u8> = std::iter::repeat_n([TAG_ARRAY, 1], 1000)
            .flatten()
            .collect();
        assert!(decode_value(&deep).is_err()); // nesting bomb
    }

    #[test]
    fn length_claim_commits_memory_only_as_bytes_arrive() {
        let mut bytes = MAX_FRAME.to_le_bytes().to_vec();
        bytes.extend_from_slice(&[0xab; 10]);
        let mut reader = FrameReader::new(std::io::Cursor::new(bytes));
        let res = reader.read::<ClientFrame>(&AtomicBool::new(false));
        assert!(matches!(res, Err(WireError::Closed)), "got {res:?}");
        assert!(
            reader.payload.capacity() <= BUF_CHUNK,
            "a 16 MiB claim backed by 10 bytes allocated {} bytes",
            reader.payload.capacity()
        );
    }

    #[test]
    fn frame_reader_reads_back_to_back_frames_across_chunks() {
        let item = ItemTruth {
            scene_id: 7,
            outputs: vec![ModelOutput::new(
                ModelId(3),
                (0..9000).map(|l| Detection::new(LabelId(l), 0.5)).collect(),
            )],
            valuable: vec![(LabelId(1), 0.75)],
            total_value: 1.25,
            model_value: vec![0.5, 0.75],
        };
        let frames = [
            ClientFrame::Hello { window: 8 },
            ClientFrame::Request(WireRequest {
                id: 1,
                item,
                class: 1,
                deadline_us: Some(5),
                value: None,
            }),
            ClientFrame::Goodbye,
        ];
        let bytes: Vec<u8> = frames.iter().flat_map(framed).collect();
        assert!(bytes.len() > BUF_CHUNK, "the request spans several chunks");
        let mut reader = FrameReader::new(std::io::Cursor::new(bytes));
        let stop = AtomicBool::new(false);
        for f in &frames {
            let back: ClientFrame = reader.read(&stop).expect("frame decodes");
            assert_eq!(format!("{back:?}"), format!("{f:?}"));
            assert!(reader.payload.capacity() <= BUF_CHUNK);
        }
        assert!(matches!(
            reader.read::<ClientFrame>(&stop),
            Err(WireError::Closed)
        ));
    }

    #[test]
    fn borrowed_request_encoding_matches_the_owned_frame() {
        let item = ItemTruth {
            scene_id: 42,
            outputs: vec![ModelOutput::new(
                ModelId(0),
                vec![Detection::new(LabelId(5), 0.25)],
            )],
            valuable: vec![(LabelId(5), 0.25)],
            total_value: 0.25,
            model_value: vec![0.25],
        };
        let opts = SubmitOptions {
            class: 3,
            deadline_us: Some(1_000),
            value: Some(2.5),
        };
        let mut borrowed = Vec::new();
        put_request_frame(&mut borrowed, 9, &item, opts);
        let owned = ClientFrame::Request(WireRequest {
            id: 9,
            item,
            class: opts.class,
            deadline_us: opts.deadline_us,
            value: opts.value,
        });
        let mut reference = Vec::new();
        encode_value(&owned.to_value(), &mut reference);
        assert_eq!(borrowed, reference);
    }

    fn framed(frame: &ClientFrame) -> Vec<u8> {
        let mut payload = Vec::new();
        frame.encode(&mut payload);
        let mut bytes = (payload.len() as u32).to_le_bytes().to_vec();
        bytes.extend_from_slice(&payload);
        bytes
    }

    #[test]
    fn connection_registry_drops_finished_connections() {
        use ams_core::framework::{AdaptiveModelScheduler, Budget};
        use ams_core::predictor::OraclePredictor;
        use ams_models::ModelZoo;

        let zoo = ModelZoo::standard();
        let predictor = Box::new(OraclePredictor::new(zoo.len(), 0.5));
        let server = AmsServer::start(
            AdaptiveModelScheduler::new(zoo, predictor, 0.5, 64),
            Budget::Deadline { ms: 900 },
            crate::ServeConfig {
                obs: Some(crate::ObsConfig::default()),
                ..crate::ServeConfig::default()
            },
        );
        let net = NetServer::bind(server, "127.0.0.1:0").expect("bind");
        let addr = net.local_addr();
        let mut session = framed(&ClientFrame::Hello { window: 4 });
        session.extend_from_slice(&framed(&ClientFrame::Goodbye));

        let mut peak = 0;
        for _ in 0..500 {
            let mut s = TcpStream::connect(addr).expect("connect");
            s.write_all(&session).expect("hello + goodbye");
            // The server closes its end once the goodbye drained.
            let mut rest = Vec::new();
            s.read_to_end(&mut rest).expect("read to close");
            assert!(rest.is_empty(), "nothing was submitted, nothing comes back");
            peak = peak.max(net.conns.lock().expect("conn registry").len());
        }
        assert!(peak <= 8, "registry grew to {peak} handles");

        // Connections still open at shutdown are joined, not leaked.
        let live: Vec<TcpStream> = (0..3)
            .map(|_| {
                let mut s = TcpStream::connect(addr).expect("connect");
                s.write_all(&framed(&ClientFrame::Hello { window: 4 }))
                    .expect("hello");
                s
            })
            .collect();
        let report = net.shutdown();
        drop(live);
        assert_eq!(report.offered, 0);
        assert!(report.is_conserved());
        assert!(report.events_reconcile());
    }
}
