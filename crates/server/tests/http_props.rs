//! Property and byte-mutation tests of the HTTP request reader over
//! in-memory readers: every well-formed request round-trips, and every
//! damaged one — flipped, dropped, duplicated or truncated bytes, a
//! `Content-Length` that is huge, negative, duplicated or not a number,
//! a missing blank line, a header that never ends — comes back `Ok` or
//! as a typed `Err`. Never a panic, never more than `MAX_HEAD_BYTES + 1`
//! head bytes or `Content-Length` body bytes consumed, and never a
//! body-sized allocation before the declared length passed the
//! `MAX_BODY_BYTES` check. Body framing the reader does not implement — a
//! `Transfer-Encoding` header, `Content-Length`s that disagree — is
//! refused on its head.

use flaml_server::http::{read_request, Request, MAX_BODY_BYTES};
use proptest::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::io::{self, BufRead, Cursor, Read};

/// `http::MAX_HEAD_BYTES`, which is private to the crate.
const MAX_HEAD_BYTES: usize = 64 * 1024;

/// What head parsing may allocate at once: a `String` that doubled
/// while holding one maximal line.
const HEAD_ALLOC: usize = 2 * (MAX_HEAD_BYTES + 1);

thread_local! {
    /// Largest single allocation this thread has requested.
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

/// The system allocator, noting each thread's largest request so a
/// property can tell whether a body buffer was ever asked for.
struct Watch;

fn note(size: usize) {
    let _ = LARGEST.try_with(|largest| largest.set(largest.get().max(size)));
}

// SAFETY: every method hands its arguments to `System` unchanged and
// returns what `System` returns, so `GlobalAlloc`'s contract holds
// because it holds for `System`. `note` touches only a const-initialised
// `Cell<usize>` without a destructor: it neither allocates nor unwinds.
unsafe impl GlobalAlloc for Watch {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller's layout, passed through.
        unsafe { System.alloc(layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller's layout, passed through.
        unsafe { System.alloc_zeroed(layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: the caller's block, layout and size, passed through.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller's block and layout, passed through.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static WATCH: Watch = Watch;

/// What one `read_request` call did to its reader and the allocator.
struct Outcome {
    result: io::Result<Option<Request>>,
    consumed: usize,
    largest_alloc: usize,
}

fn read(bytes: &[u8]) -> Outcome {
    let mut reader = Cursor::new(bytes);
    LARGEST.with(|largest| largest.set(0));
    let result = read_request(&mut reader);
    Outcome {
        result,
        consumed: reader.position() as usize,
        largest_alloc: LARGEST.with(Cell::get),
    }
}

/// The byte offset just past the line that ends the head, if there is
/// one — by the reader's own rule: any line after the request line that
/// is nothing but whitespace.
fn head_end(bytes: &[u8]) -> Option<usize> {
    let mut at = 0;
    for (i, line) in bytes.split_inclusive(|b| *b == b'\n').enumerate() {
        at += line.len();
        if i > 0 && std::str::from_utf8(line).is_ok_and(|l| l.trim_end().is_empty()) {
            return Some(at);
        }
    }
    None
}

/// The safety envelope every call must stay inside, whatever the bytes.
fn assert_bounded(bytes: &[u8], outcome: &Outcome) {
    let head = head_end(bytes).unwrap_or(bytes.len());
    match &outcome.result {
        Ok(Some(request)) => {
            assert!(head <= MAX_HEAD_BYTES, "accepted a {head}-byte head");
            assert!(request.body.len() <= MAX_BODY_BYTES);
            assert_eq!(outcome.consumed, head + request.body.len());
            assert!(outcome.largest_alloc <= HEAD_ALLOC.max(request.body.len()));
        }
        Ok(None) => assert_eq!(outcome.consumed, 0, "clean EOF consumes nothing"),
        // The body's bytes ran out: its length had passed the check.
        Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => {
            assert!(head <= MAX_HEAD_BYTES && outcome.consumed == bytes.len());
            assert!(outcome.largest_alloc <= HEAD_ALLOC.max(MAX_BODY_BYTES));
        }
        // Refused on its head: no body byte read, no body buffer made.
        Err(e) => {
            assert_eq!(e.kind(), io::ErrorKind::InvalidData, "untyped error {e:?}");
            assert!(outcome.consumed <= head.min(MAX_HEAD_BYTES + 1));
            assert!(outcome.largest_alloc <= HEAD_ALLOC);
        }
    }
}

fn arb_token(
    alphabet: &'static [u8],
    len: std::ops::Range<usize>,
) -> impl Strategy<Value = String> {
    proptest::collection::vec(0usize..alphabet.len(), len)
        .prop_map(move |picks| picks.iter().map(|&i| alphabet[i] as char).collect())
}

/// A well-formed request and what it must parse to.
#[derive(Debug, Clone)]
struct Wellformed {
    bytes: Vec<u8>,
    method: String,
    path: String,
    keep_alive: bool,
    body: Vec<u8>,
}

fn arb_request() -> impl Strategy<Value = Wellformed> {
    (
        (
            arb_token(b"GETPOSDLUgetpos", 1..8),
            arb_token(b"abcxyz019_-/.%", 0..24),
            arb_token(b"abc=&19", 0..8),
        ),
        proptest::collection::vec(0u8..=255, 0..300),
        // HTTP version, connection header (none / keep-alive / close /
        // Close), line ending, header-name case.
        (0usize..2, 0usize..4, 0usize..2, 0usize..2),
        proptest::collection::vec(arb_token(b"abcdefXYZ-", 1..12), 0..4),
    )
        .prop_map(|((method, path, query), body, knobs, extra)| {
            let (version, connection, ending, case) = knobs;
            let eol = ["\r\n", "\n"][ending];
            let path = format!("/{path}");
            let target = if query.is_empty() {
                path.clone()
            } else {
                format!("{path}?{query}")
            };
            let mut head = format!("{method} {target} HTTP/1.{version}{eol}");
            for name in &extra {
                head.push_str(&format!("x-{name}: {name}{eol}"));
            }
            if !body.is_empty() || case == 1 {
                let name = ["content-length", "Content-Length"][case];
                head.push_str(&format!("{name}: {}{eol}", body.len()));
            }
            let connection = [None, Some("keep-alive"), Some("close"), Some("Close")][connection];
            if let Some(value) = connection {
                head.push_str(&format!("connection: {value}{eol}"));
            }
            head.push_str(eol);
            let mut bytes = head.into_bytes();
            bytes.extend_from_slice(&body);
            Wellformed {
                bytes,
                method: method.to_ascii_uppercase(),
                path,
                keep_alive: match connection {
                    None => version == 1,
                    Some(value) => !value.eq_ignore_ascii_case("close"),
                },
                body,
            }
        })
}

/// One way to damage a request's bytes.
#[derive(Debug, Clone)]
enum Mutation {
    Flip {
        at: usize,
        mask: u8,
    },
    Drop {
        at: usize,
    },
    Duplicate {
        at: usize,
        times: usize,
    },
    Truncate {
        at: usize,
    },
    /// Replaces every `Content-Length` header with this value.
    Length(String),
    /// A second `Content-Length` header ahead of the real one.
    SecondLength(String),
    /// Removes the blank line that ends the head.
    NoBlankLine,
}

fn arb_mutation() -> impl Strategy<Value = Mutation> {
    let lengths = || {
        prop_oneof![
            Just("18446744073709551615"),
            Just("18446744073709551616"),
            Just("99999999999999999999999999"),
            Just("67108865"), // MAX_BODY_BYTES + 1
            Just("-1"),
            Just("-0"),
            Just("1e3"),
            Just("0x10"),
            Just("ten"),
            Just(""),
            Just("4 4"),
        ]
    };
    prop_oneof![
        (0usize..4096, 1u8..=255).prop_map(|(at, mask)| Mutation::Flip { at, mask }),
        (0usize..4096).prop_map(|at| Mutation::Drop { at }),
        (0usize..4096, 1usize..40).prop_map(|(at, times)| Mutation::Duplicate { at, times }),
        (0usize..4096).prop_map(|at| Mutation::Truncate { at }),
        lengths().prop_map(|v| Mutation::Length(v.to_string())),
        lengths().prop_map(|v| Mutation::SecondLength(v.to_string())),
        Just(Mutation::NoBlankLine),
    ]
}

fn mutate(request: &Wellformed, mutation: &Mutation) -> Vec<u8> {
    let mut bytes = request.bytes.clone();
    let head = head_end(&bytes).expect("well-formed head");
    let first_line = bytes
        .iter()
        .position(|b| *b == b'\n')
        .expect("request line")
        + 1;
    match mutation.clone() {
        Mutation::Flip { at, mask } => {
            let at = at % bytes.len();
            bytes[at] ^= mask;
        }
        Mutation::Drop { at } => {
            bytes.remove(at % bytes.len());
        }
        Mutation::Duplicate { at, times } => {
            let at = at % bytes.len();
            let byte = bytes[at];
            bytes.splice(at..at, std::iter::repeat_n(byte, times));
        }
        Mutation::Truncate { at } => bytes.truncate(at % bytes.len()),
        Mutation::Length(value) => {
            let text = String::from_utf8_lossy(&bytes[..head]).into_owned();
            let mut lines: Vec<String> = text
                .split_inclusive('\n')
                .filter(|l| !l.to_ascii_lowercase().starts_with("content-length"))
                .map(str::to_string)
                .collect();
            lines.insert(lines.len().min(1), format!("content-length: {value}\r\n"));
            bytes.splice(..head, lines.concat().into_bytes());
        }
        Mutation::SecondLength(value) => {
            let header = format!("Content-Length: {value}\r\n");
            bytes.splice(first_line..first_line, header.into_bytes());
        }
        Mutation::NoBlankLine => {
            let blank = bytes[..head]
                .split_inclusive(|b| *b == b'\n')
                .next_back()
                .map_or(0, <[u8]>::len);
            bytes.drain(head - blank..head);
        }
    }
    bytes
}

proptest! {
    #[test]
    fn wellformed_requests_round_trip(request in arb_request()) {
        let outcome = read(&request.bytes);
        assert_bounded(&request.bytes, &outcome);
        let parsed = outcome.result.expect("well-formed").expect("not EOF");
        prop_assert_eq!(&parsed.method, &request.method);
        prop_assert_eq!(&parsed.path, &request.path);
        prop_assert_eq!(parsed.keep_alive, request.keep_alive);
        prop_assert_eq!(&parsed.body, &request.body);
        prop_assert_eq!(outcome.consumed, request.bytes.len());
    }

    #[test]
    fn kept_alive_requests_read_back_to_back(
        requests in proptest::collection::vec(arb_request(), 1..5)
    ) {
        // Nothing past a request's own bytes is consumed: the next one
        // on the connection parses from where the last one ended.
        let wire: Vec<u8> = requests.iter().flat_map(|r| r.bytes.clone()).collect();
        let mut reader = Cursor::new(&wire[..]);
        for request in &requests {
            let parsed = read_request(&mut reader).expect("well-formed").expect("not EOF");
            prop_assert_eq!(&parsed.path, &request.path);
            prop_assert_eq!(&parsed.body, &request.body);
        }
        prop_assert!(read_request(&mut reader).expect("clean EOF").is_none());
    }

    #[test]
    fn mutated_requests_are_parsed_or_refused_inside_the_bounds(
        request in arb_request(),
        mutations in proptest::collection::vec(arb_mutation(), 1..4),
    ) {
        let mut damaged = request.clone();
        for mutation in &mutations {
            if damaged.bytes.is_empty() || head_end(&damaged.bytes).is_none() {
                break;
            }
            damaged.bytes = mutate(&damaged, mutation);
        }
        let outcome = read(&damaged.bytes);
        assert_bounded(&damaged.bytes, &outcome);
    }

    #[test]
    fn oversized_bodies_are_refused_before_any_buffer_exists(
        request in arb_request(),
        claimed in prop_oneof![
            MAX_BODY_BYTES + 1..MAX_BODY_BYTES * 4,
            Just(1usize << 40),
            Just(usize::MAX),
        ],
    ) {
        let bytes = mutate(&request, &Mutation::Length(claimed.to_string()));
        let outcome = read(&bytes);
        let err = outcome.result.expect_err("over the body cap");
        prop_assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        prop_assert!(err.to_string().contains("body too large"), "{}", err);
        prop_assert_eq!(outcome.consumed, head_end(&bytes).expect("head intact"));
        prop_assert!(outcome.largest_alloc <= HEAD_ALLOC, "{} bytes asked for", outcome.largest_alloc);
    }

    #[test]
    fn heads_up_to_the_cap_parse_and_one_byte_more_is_refused(
        request in arb_request(),
        over in 0usize..2,
    ) {
        // Pad the head to exactly MAX_HEAD_BYTES (+ `over`) with one
        // long header ahead of the others.
        let head = head_end(&request.bytes).expect("head");
        let first_line = request.bytes.iter().position(|b| *b == b'\n').expect("line") + 1;
        let room = MAX_HEAD_BYTES + over - head - "x-pad: \r\n".len();
        let pad = format!("x-pad: {}\r\n", "p".repeat(room));
        let mut bytes = request.bytes.clone();
        bytes.splice(first_line..first_line, pad.into_bytes());
        let outcome = read(&bytes);
        assert_bounded(&bytes, &outcome);
        if over == 0 {
            let parsed = outcome.result.expect("at the cap").expect("not EOF");
            prop_assert_eq!(&parsed.body, &request.body);
        } else {
            let err = outcome.result.expect_err("one byte over the cap");
            prop_assert!(err.to_string().contains("header block too large"), "{}", err);
        }
    }
}

/// A peer that sends header bytes forever and never a `\n`, counting
/// what is pulled from it. `BufRead` directly (no `BufReader` in
/// between), so the count is exactly what `read_request` consumed.
struct EndlessHeader {
    prefix: &'static [u8],
    pulled: usize,
}

impl Read for EndlessHeader {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let n = self.fill_buf()?.len().min(buf.len());
        buf[..n].copy_from_slice(&self.fill_buf()?[..n]);
        self.consume(n);
        Ok(n)
    }
}

impl BufRead for EndlessHeader {
    fn fill_buf(&mut self) -> io::Result<&[u8]> {
        const FILLER: &[u8] = &[b'a'; 4096];
        Ok(match self.prefix.get(self.pulled..) {
            Some(rest) if !rest.is_empty() => rest,
            _ => FILLER,
        })
    }
    fn consume(&mut self, n: usize) {
        self.pulled += n;
    }
}

#[test]
fn an_endless_header_is_refused_at_the_cap_not_at_its_newline() {
    for prefix in [
        &b""[..],                                 // an endless request line
        &b"GET /healthz HTTP/1.1\r\nx-pad: "[..], // an endless first header
        &b"GET / HTTP/1.1\r\na: b\r\nc: d\r\nx-pad: "[..],
    ] {
        let mut peer = EndlessHeader { prefix, pulled: 0 };
        LARGEST.with(|largest| largest.set(0));
        let err = read_request(&mut peer).expect_err("no head ends this request");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
        assert!(err.to_string().contains("header block too large"), "{err}");
        assert_eq!(
            peer.pulled,
            MAX_HEAD_BYTES + 1,
            "the cap holds while reading"
        );
        assert!(LARGEST.with(Cell::get) <= HEAD_ALLOC);
    }
}

#[test]
fn a_short_body_is_an_unexpected_eof_and_a_clean_eof_is_none() {
    let outcome = read(b"POST /x HTTP/1.1\r\ncontent-length: 10\r\n\r\nshort");
    let err = outcome.result.expect_err("body ran out");
    assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    assert!(read(b"").result.expect("clean EOF").is_none());
    let err = read(b"GET / HTTP/1.1\r\nhost: x\r\n")
        .result
        .expect_err("no blank line");
    assert!(err.to_string().contains("closed mid-headers"), "{err}");
}

#[test]
fn framing_the_reader_does_not_implement_is_refused_on_its_head() {
    for (bytes, why) in [
        (
            &b"GET /healthz HTTP/1.1\r\ntransfer-encoding: chunked\r\n\r\n0\r\n\r\n"[..],
            "transfer-encoding",
        ),
        (
            &b"POST /x HTTP/1.1\r\nContent-Length: 5\r\ncontent-length: 3\r\n\r\nabcde"[..],
            "conflicting content-length",
        ),
    ] {
        let outcome = read(bytes);
        assert_bounded(bytes, &outcome);
        let err = outcome.result.expect_err(why);
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
        assert!(err.to_string().contains(why), "{err}");
    }
}
