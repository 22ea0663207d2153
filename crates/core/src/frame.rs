//! The wire protocol: length-prefixed binary frames with an integrity
//! header.
//!
//! Every byte on a cut token link (`bsim_engine::link`) is one [`Frame`]:
//! `[magic: u16 LE][version: u8][tag: u8][len: u32 LE][crc32: u32 LE]`
//! `[payload: len bytes]`. Two frame kinds carry token traffic —
//! [`Frame::Data`] for literal token batches and [`Frame::Run`] for
//! run-length spans (the on-the-wire form of the quiescence
//! fast-forward: a million idle cycles is 36 bytes, not 8 MB) — and
//! [`Frame::Err`] carries a peer's fatal error.
//!
//! Frames carry *channel-absolute* start cycles so every hop re-checks
//! the token protocol: a frame landing at the wrong cycle is a protocol
//! violation surfaced as [`std::io::ErrorKind::InvalidData`], never a
//! silently reordered simulation.
//!
//! Failure taxonomy: clean EOF between frames is **peer loss**
//! ([`io::ErrorKind::UnexpectedEof`]); EOF inside a frame is a **torn**
//! write ([`io::ErrorKind::InvalidData`]); a frame that arrives whole
//! but fails the magic, version, or CRC32 check is **corrupt**
//! (`InvalidData` whose message starts with `corrupt frame: `) — three
//! distinct conditions, never conflated; the tests classify every read
//! error into one of them.

use crate::crc32;
use std::io::{self, Read, Write};

/// Upper bound on a frame payload. Nothing legitimate comes close; a
/// corrupt length prefix must not turn into a multi-gigabyte allocation.
const MAX_FRAME: usize = 64 << 20;

/// First two bytes of every frame; a stream that does not open with the
/// magic is not speaking this protocol (or a bit flipped in transit).
const MAGIC: u16 = 0xB51D;

/// Wire protocol version, bumped when the frame layout changes.
/// Version 1 was the pre-guard `[tag][len]` header without integrity.
const PROTO_VERSION: u8 = 2;

/// Total bytes preceding the payload: magic + version + tag + len + crc.
const HEADER_LEN: usize = 12;

/// One message on a cut token link.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Frame {
    /// A literal batch of tokens for cycles `start..start + tokens.len()`.
    Data { start: u64, tokens: Vec<u64> },
    /// A run-length span: `n` copies of `fill` for cycles `start..start + n`.
    Run { start: u64, n: u64, fill: u64 },
    /// Either direction: fatal error, human-readable.
    Err { msg: String },
}

// Tags never move, so a frame's bytes stay what they were. Tag 5 was
// never assigned, and 1, 2, 6 and 7 are retired (the launcher's
// handshake, plan, cell and done frames); an unassigned tag reads as a
// flipped header bit.
const TAG_DATA: u8 = 3;
const TAG_RUN: u8 = 4;
const TAG_ERR: u8 = 8;

fn bad(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

/// Prefix every integrity failure so a reader can tell corruption
/// apart from a torn write without a new `io::ErrorKind`.
const CORRUPT_PREFIX: &str = "corrupt frame: ";

fn corrupt(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, format!("{CORRUPT_PREFIX}{msg}"))
}

fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn take_u64(payload: &[u8], at: usize) -> io::Result<u64> {
    payload
        .get(at..at + 8)
        .map(|b| u64::from_le_bytes(b.try_into().expect("8-byte slice"))) // bsim: allow(AU002) slice width is structural
        .ok_or_else(|| bad("truncated frame payload".into()))
}

fn take_str(payload: &[u8], at: usize) -> io::Result<String> {
    String::from_utf8(payload[at..].to_vec()).map_err(|_| bad("non-UTF-8 frame text".into()))
}

/// Serializes and writes one frame. One `write_all` per frame keeps a
/// frame from interleaving with another writer's bytes only if the
/// stream has a single writer — which the link design guarantees (each
/// direction of each cut wire is its own connection).
pub fn write_frame(w: &mut impl Write, frame: &Frame) -> io::Result<()> {
    let (tag, payload) = match frame {
        Frame::Data { start, tokens } => {
            let mut p = Vec::with_capacity(8 + tokens.len() * 8);
            put_u64(&mut p, *start);
            for t in tokens {
                put_u64(&mut p, *t);
            }
            (TAG_DATA, p)
        }
        Frame::Run { start, n, fill } => {
            let mut p = Vec::with_capacity(24);
            put_u64(&mut p, *start);
            put_u64(&mut p, *n);
            put_u64(&mut p, *fill);
            (TAG_RUN, p)
        }
        Frame::Err { msg } => (TAG_ERR, msg.as_bytes().to_vec()),
    };
    if payload.len() > MAX_FRAME {
        return Err(bad(format!(
            "{}-byte frame exceeds MAX_FRAME",
            payload.len()
        )));
    }
    let mut out = Vec::with_capacity(HEADER_LEN + payload.len());
    out.extend_from_slice(&MAGIC.to_le_bytes());
    out.push(PROTO_VERSION);
    out.push(tag);
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&crc32(&payload).to_le_bytes());
    out.extend_from_slice(&payload);
    w.write_all(&out)
}

/// Reads one frame, blocking. EOF *between* frames surfaces as
/// `UnexpectedEof` with message `"peer closed"` — the peer's death; EOF *inside* a frame is a torn write and
/// reads as a protocol error; a bad magic, unsupported version, or
/// CRC32 mismatch is a corrupt-frame integrity failure. A
/// socket read timeout propagates with its own kind so guard deadlines
/// stay a typed condition, not a mislabeled tear.
pub fn read_frame(r: &mut impl Read) -> io::Result<Frame> {
    let mut head = [0u8; HEADER_LEN];
    let mut filled = 0;
    while filled < head.len() {
        let n = r.read(&mut head[filled..])?;
        if n == 0 {
            return Err(if filled == 0 {
                io::Error::new(io::ErrorKind::UnexpectedEof, "peer closed")
            } else {
                bad("EOF inside a frame header".into())
            });
        }
        filled += n;
    }
    let magic = u16::from_le_bytes(head[0..2].try_into().expect("2-byte slice")); // bsim: allow(AU002) slice width is structural
    if magic != MAGIC {
        return Err(corrupt(format!("bad magic {magic:#06x}")));
    }
    if head[2] != PROTO_VERSION {
        return Err(corrupt(format!(
            "protocol version {} (this build speaks {PROTO_VERSION})",
            head[2]
        )));
    }
    let tag = head[3];
    let len = u32::from_le_bytes(head[4..8].try_into().expect("4-byte slice")) as usize; // bsim: allow(AU002) slice width is structural
    let want_crc = u32::from_le_bytes(head[8..12].try_into().expect("4-byte slice")); // bsim: allow(AU002) slice width is structural
    if len > MAX_FRAME {
        return Err(corrupt(format!("{len}-byte frame exceeds MAX_FRAME")));
    }
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload).map_err(|e| {
        // A timeout is a guard deadline, not a tear; keep its kind.
        if matches!(
            e.kind(),
            io::ErrorKind::TimedOut | io::ErrorKind::WouldBlock
        ) {
            e
        } else {
            bad("EOF inside a frame payload".into())
        }
    })?;
    let got_crc = crc32(&payload);
    if got_crc != want_crc {
        return Err(corrupt(format!(
            "payload CRC32 {got_crc:#010x} != header {want_crc:#010x}"
        )));
    }
    match tag {
        TAG_DATA => {
            let start = take_u64(&payload, 0)?;
            if !(payload.len() - 8).is_multiple_of(8) {
                return Err(bad("Data frame payload is not a whole token count".into()));
            }
            let tokens = payload[8..]
                .chunks_exact(8)
                .map(|c| u64::from_le_bytes(c.try_into().expect("8-byte chunk"))) // bsim: allow(AU002) slice width is structural
                .collect();
            Ok(Frame::Data { start, tokens })
        }
        TAG_RUN => Ok(Frame::Run {
            start: take_u64(&payload, 0)?,
            n: take_u64(&payload, 8)?,
            fill: take_u64(&payload, 16)?,
        }),
        TAG_ERR => Ok(Frame::Err {
            msg: take_str(&payload, 0)?,
        }),
        // Magic and version already matched, so an unknown tag is a
        // flipped bit in the header, not a foreign protocol.
        other => Err(corrupt(format!("unknown frame tag {other}"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The typed failure classes a frame read can produce.
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    enum FrameError {
        /// Clean EOF between frames: the peer is gone, nothing was torn.
        PeerClosed,
        /// EOF or structural garbage inside a frame: a torn write.
        Torn,
        /// The frame arrived whole but failed the magic, version, or CRC32
        /// check — data integrity, not framing.
        Corrupt,
        /// The socket's guard timeout expired before a frame arrived.
        Timeout,
        /// Any other transport error.
        Io,
    }

    /// Classifies an error returned by [`read_frame`] (or a write on the
    /// same socket) into the [`FrameError`] taxonomy. Total: anything the
    /// frame layer did not type lands in [`FrameError::Io`].
    fn classify(e: &io::Error) -> FrameError {
        match e.kind() {
            io::ErrorKind::UnexpectedEof => FrameError::PeerClosed,
            io::ErrorKind::TimedOut | io::ErrorKind::WouldBlock => FrameError::Timeout,
            io::ErrorKind::InvalidData => {
                if e.to_string().starts_with(CORRUPT_PREFIX) {
                    FrameError::Corrupt
                } else {
                    FrameError::Torn
                }
            }
            _ => FrameError::Io,
        }
    }

    #[test]
    fn every_variant_roundtrips() {
        let frames = vec![
            Frame::Data {
                start: 7,
                tokens: vec![1, 0, u64::MAX],
            },
            Frame::Run {
                start: 10,
                n: 1 << 40,
                fill: 0,
            },
            Frame::Err {
                msg: "rank 1: link closed".into(),
            },
        ];
        let mut wire = Vec::new();
        for f in &frames {
            write_frame(&mut wire, f).expect("vec write is infallible");
        }
        let mut r = &wire[..];
        for f in &frames {
            assert_eq!(&read_frame(&mut r).expect("frame reads back"), f);
        }
        // The stream is exactly consumed: next read is a clean EOF.
        let end = read_frame(&mut r).expect_err("stream is drained");
        assert_eq!(end.kind(), io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn a_run_frame_is_constant_size() {
        let mut wire = Vec::new();
        write_frame(
            &mut wire,
            &Frame::Run {
                start: 0,
                n: 1_000_000,
                fill: 0,
            },
        )
        .expect("vec write");
        // 12-byte integrity header + 24-byte payload: a million idle
        // cycles in 36 bytes is the point of run-length token traffic.
        assert_eq!(wire.len(), HEADER_LEN + 24);
        assert_eq!(wire.len(), 36);
    }

    /// A valid header for `payload`, for hand-corrupting in tests.
    fn header(tag: u8, payload: &[u8]) -> Vec<u8> {
        let mut h = Vec::with_capacity(HEADER_LEN);
        h.extend_from_slice(&MAGIC.to_le_bytes());
        h.push(PROTO_VERSION);
        h.push(tag);
        h.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        h.extend_from_slice(&crc32(payload).to_le_bytes());
        h
    }

    #[test]
    fn torn_and_corrupt_frames_are_protocol_errors_not_panics() {
        // EOF mid-header: torn, not corrupt.
        let mut r: &[u8] = &[MAGIC.to_le_bytes()[0], MAGIC.to_le_bytes()[1], 9];
        let e = read_frame(&mut r).expect_err("torn header");
        assert_eq!(e.kind(), io::ErrorKind::InvalidData);
        assert_eq!(classify(&e), FrameError::Torn);
        // EOF mid-payload: torn.
        let mut wire = Vec::new();
        write_frame(
            &mut wire,
            &Frame::Data {
                start: 0,
                tokens: vec![1, 2, 3],
            },
        )
        .expect("vec write");
        wire.truncate(wire.len() - 1);
        let mut r = &wire[..];
        let e = read_frame(&mut r).expect_err("torn payload");
        assert_eq!(e.kind(), io::ErrorKind::InvalidData);
        assert_eq!(classify(&e), FrameError::Torn);
        // Absurd length prefix under a valid magic/version: corrupt.
        let mut head = header(TAG_ERR, b"");
        head[4..8].copy_from_slice(&((MAX_FRAME + 1) as u32).to_le_bytes());
        let mut r = &head[..];
        let e = read_frame(&mut r).expect_err("oversized");
        assert_eq!(classify(&e), FrameError::Corrupt);
        // Unknown tags under a valid magic/version — 99, and the
        // unassigned 5 with a payload — are corrupt.
        for (tag, payload) in [(99, &b""[..]), (5, &[2, 0, 0, 0, 1][..])] {
            let mut wire = header(tag, payload);
            wire.extend_from_slice(payload);
            let e = read_frame(&mut &wire[..]).expect_err("unknown tag");
            assert_eq!(classify(&e), FrameError::Corrupt, "tag {tag}: {e}");
            assert!(e.to_string().contains("unknown frame tag"), "{e}");
        }
    }

    #[test]
    fn integrity_failures_are_typed_corrupt_distinct_from_torn() {
        // Bad magic.
        let mut head = header(TAG_ERR, b"");
        head[0] ^= 0xFF;
        let e = read_frame(&mut &head[..]).expect_err("bad magic");
        assert_eq!(e.kind(), io::ErrorKind::InvalidData);
        assert_eq!(classify(&e), FrameError::Corrupt);
        assert!(e.to_string().contains("magic"), "{e}");
        // Foreign protocol version.
        let mut head = header(TAG_ERR, b"");
        head[2] = PROTO_VERSION + 1;
        let e = read_frame(&mut &head[..]).expect_err("bad version");
        assert_eq!(classify(&e), FrameError::Corrupt);
        assert!(e.to_string().contains("version"), "{e}");
        // A single payload bit flipped: the CRC catches it.
        let mut wire = Vec::new();
        write_frame(
            &mut wire,
            &Frame::Data {
                start: 7,
                tokens: vec![123_456, 0, 1],
            },
        )
        .expect("vec write");
        for bit in 0..8 {
            let mut flipped = wire.clone();
            let last = flipped.len() - 1;
            flipped[last] ^= 1 << bit;
            let e = read_frame(&mut &flipped[..]).expect_err("flipped payload bit");
            assert_eq!(classify(&e), FrameError::Corrupt, "bit {bit}: {e}");
            assert!(e.to_string().contains("CRC32"), "{e}");
        }
        // Clean EOF stays its own class.
        let e = read_frame(&mut &[][..]).expect_err("clean eof");
        assert_eq!(classify(&e), FrameError::PeerClosed);
        // Timeouts keep their kind through classification.
        let t = io::Error::new(io::ErrorKind::TimedOut, "read timed out");
        assert_eq!(classify(&t), FrameError::Timeout);
        let w = io::Error::new(io::ErrorKind::WouldBlock, "read timed out");
        assert_eq!(classify(&w), FrameError::Timeout);
        assert_eq!(
            classify(&io::Error::new(io::ErrorKind::ConnectionReset, "rst")),
            FrameError::Io
        );
    }

    #[test]
    fn corruption_fuzz_never_panics_the_decoder() {
        // Seeded 10k-round smoke: flip one bit or truncate a valid
        // multi-frame wire at a pseudo-random point, then drain the
        // decoder. Every round must end in a typed error or clean EOF —
        // never a panic, never an unbounded allocation.
        let frames = vec![
            Frame::Data {
                start: 64,
                tokens: (0..32).collect(),
            },
            Frame::Run {
                start: 96,
                n: 1 << 30,
                fill: 0,
            },
            Frame::Err {
                msg: r#"rank 2: {"platform":"milkv","cycles":987654}"#.into(),
            },
        ];
        let mut clean = Vec::new();
        for f in &frames {
            write_frame(&mut clean, f).expect("vec write");
        }
        let mut state: u64 = 0xB51D_600D_F00D_5EED;
        let mut rng = move || {
            // splitmix64, inlined so the test is self-contained.
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        let mut corrupt_seen = 0u32;
        for round in 0..10_000u32 {
            let mut wire = clean.clone();
            if round % 4 == 0 {
                wire.truncate((rng() as usize) % (wire.len() + 1));
            } else {
                let at = (rng() as usize) % wire.len();
                wire[at] ^= 1 << (rng() % 8);
            }
            let mut r = &wire[..];
            loop {
                match read_frame(&mut r) {
                    Ok(_) => continue,
                    Err(e) => {
                        match classify(&e) {
                            FrameError::Corrupt => corrupt_seen += 1,
                            FrameError::PeerClosed | FrameError::Torn => {}
                            other => panic!("round {round}: unexpected {other:?}: {e}"),
                        }
                        break;
                    }
                }
            }
        }
        assert!(
            corrupt_seen > 1_000,
            "bit flips barely ever tripped the CRC ({corrupt_seen}/10000)"
        );
    }

    #[test]
    fn a_retired_tag_decodes_to_a_typed_error_never_a_value() {
        // Tags 1, 2, 6 and 7 carried the launcher's handshake, plan, cell
        // and done frames. A frame in that old shape, whole and with a
        // valid CRC, is now an unknown tag: corrupt, never a frame.
        for (tag, payload) in [
            (1, &[3, 0, 0, 0][..]),
            (2, &br#"{"mode":"sweep"}"#[..]),
            (6, &[5, 0, 0, 0, b'{', b'}'][..]),
            (7, &b""[..]),
        ] {
            let mut wire = header(tag, payload);
            wire.extend_from_slice(payload);
            let e = read_frame(&mut &wire[..]).expect_err("retired tag");
            assert_eq!(e.kind(), io::ErrorKind::InvalidData, "tag {tag}");
            assert_eq!(classify(&e), FrameError::Corrupt, "tag {tag}: {e}");
            assert!(e.to_string().contains("unknown frame tag"), "{e}");
        }
    }
}
