//! Property-based tests for the incremental HTTP/1.1 request parser that
//! the serving reactor feeds with raw socket bytes: arbitrary TCP read
//! fragmentation, pipelined back-to-back requests, oversized and malformed
//! headers, and chunked garbage must never panic or mis-frame.
//!
//! The `GET /v1/trace` query-string parser reads untrusted bytes too: any
//! query decodes to its filters or to a 400 message, never a panic.
//!
//! The central invariant is **split independence**: because
//! `parse_request` is a pure function of the accumulated buffer, feeding a
//! byte stream in any fragmentation must yield exactly the requests that
//! parsing the concatenation yields — the reactor's read loop depends on
//! this to be correct under every possible packet boundary.

use faircap::serve::http::{parse_request, ParseError, Parsed, Request};
use faircap::serve::parse_trace_query;
use proptest::prelude::*;

/// Drain every complete request out of a buffer, exactly like the
/// reactor's parse loop.
fn drain(buf: &mut Vec<u8>) -> Result<Vec<Request>, ParseError> {
    let mut out = Vec::new();
    loop {
        match parse_request(buf)? {
            Parsed::Complete { request, consumed } => {
                buf.drain(..consumed);
                out.push(request);
            }
            Parsed::Partial => return Ok(out),
        }
    }
}

/// Parse a stream delivered in the given fragments, accumulating like the
/// reactor does across socket reads.
fn parse_fragmented(stream: &[u8], cuts: &[usize]) -> Result<Vec<Request>, ParseError> {
    let mut buf = Vec::new();
    let mut requests = Vec::new();
    let mut at = 0;
    for &cut in cuts {
        let cut = cut.min(stream.len());
        if cut > at {
            buf.extend_from_slice(&stream[at..cut]);
            at = cut;
            requests.extend(drain(&mut buf)?);
        }
    }
    buf.extend_from_slice(&stream[at..]);
    requests.extend(drain(&mut buf)?);
    Ok(requests)
}

fn encode_request(method: &str, path: &str, headers: &[(String, String)], body: &[u8]) -> Vec<u8> {
    let mut out = format!("{method} {path} HTTP/1.1\r\n");
    for (name, value) in headers {
        out.push_str(&format!("{name}: {value}\r\n"));
    }
    out.push_str(&format!("content-length: {}\r\n\r\n", body.len()));
    let mut bytes = out.into_bytes();
    bytes.extend_from_slice(body);
    bytes
}

fn method_strategy() -> impl Strategy<Value = String> {
    prop_oneof![
        Just("GET".to_string()),
        Just("POST".to_string()),
        Just("PUT".to_string()),
        Just("DELETE".to_string()),
    ]
}

fn path_strategy() -> impl Strategy<Value = String> {
    prop_oneof![
        Just("/v1/solve".to_string()),
        Just("/healthz".to_string()),
        "/[a-z]{1,12}",
        "/[a-z]{1,6}/[a-z0-9]{1,8}",
    ]
}

fn header_strategy() -> impl Strategy<Value = (String, String)> {
    (
        prop_oneof![
            "[a-z][a-z-]{0,14}",
            Just("x-request-id".to_string()),
            Just("accept".to_string()),
        ],
        "[ -~]{0,24}",
    )
        .prop_filter("reserved framing headers", |(name, _)| {
            let n = name.to_ascii_lowercase();
            n != "content-length" && n != "transfer-encoding" && n != "connection"
        })
}

fn request_strategy() -> impl Strategy<Value = (String, String, Vec<(String, String)>, Vec<u8>)> {
    (
        method_strategy(),
        path_strategy(),
        prop::collection::vec(header_strategy(), 0..5),
        prop::collection::vec(any::<u8>(), 0..200),
    )
}

/// One `key=value` pair of a `/v1/trace` query: the two known keys or an
/// arbitrary one, with values that are sometimes valid thresholds. Neither
/// side holds `&`, and keys hold no `=`.
fn trace_pair_strategy() -> impl Strategy<Value = (String, String)> {
    (
        prop_oneof![
            Just("session".to_string()),
            Just("min_ms".to_string()),
            "[a-z_]{0,8}",
        ],
        prop_oneof![
            "[ -%'-~]{0,10}",
            "[0-9]{1,4}",
            "-[0-9]{1,3}",
            "[0-9]{1,3}.[0-9]{1,3}",
            Just("inf".to_string()),
            Just("NaN".to_string()),
            Just("1e400".to_string()),
        ],
    )
}

proptest! {
    /// Arbitrary bytes as a `/v1/trace` query never panic the parser; an
    /// accepted threshold is a finite non-negative number and a refusal
    /// carries a message.
    #[test]
    fn trace_query_parser_never_panics(bytes in prop::collection::vec(any::<u8>(), 0..256)) {
        let query = String::from_utf8_lossy(&bytes);
        for query in [Some(query.as_ref()), None] {
            match parse_trace_query(query) {
                Ok((_, min_ms)) => prop_assert!(min_ms.is_finite() && min_ms >= 0.0),
                Err(message) => prop_assert!(!message.is_empty()),
            }
        }
    }

    /// Well-formed pairs decode as a pair-by-pair reading says: the last
    /// `session` and `min_ms` win, and the first unknown key or bad
    /// threshold is refused.
    #[test]
    fn trace_query_parser_reads_pairs_in_order(
        pairs in prop::collection::vec(trace_pair_strategy(), 0..6),
    ) {
        let query: Vec<String> = pairs.iter().map(|(k, v)| format!("{k}={v}")).collect();
        let query = query.join("&");
        let mut expected = Ok((None, 0.0));
        for (k, v) in &pairs {
            let Ok((session, min_ms)) = &mut expected else { break };
            match k.as_str() {
                "session" => *session = Some(v.clone()),
                "min_ms" => match v.parse::<f64>() {
                    Ok(ms) if ms.is_finite() && ms >= 0.0 => *min_ms = ms,
                    _ => expected = Err(v.clone()),
                },
                _ => expected = Err(k.clone()),
            }
        }
        match (parse_trace_query(Some(&query)), expected) {
            (Ok(got), Ok(want)) => prop_assert_eq!(got, want, "query `{}`", query),
            (Err(message), Err(culprit)) => {
                prop_assert!(message.contains(&format!("`{culprit}`")), "{}", message)
            }
            (got, want) => prop_assert!(false, "query `{}`: got {:?}, want {:?}", query, got, want),
        }
    }

    /// parse(concat) == parse(fragments) for arbitrary split points: the
    /// same requests, fields, and bodies come out no matter how the bytes
    /// arrive.
    #[test]
    fn split_independence(
        requests in prop::collection::vec(request_strategy(), 1..4),
        cuts in prop::collection::vec(0usize..4096, 0..12),
    ) {
        let mut stream = Vec::new();
        for (method, path, headers, body) in &requests {
            stream.extend_from_slice(&encode_request(method, path, headers, body));
        }
        let mut sorted_cuts = cuts.clone();
        sorted_cuts.sort_unstable();

        let whole = parse_fragmented(&stream, &[]).expect("well-formed stream parses");
        let split = parse_fragmented(&stream, &sorted_cuts).expect("fragmented stream parses");

        prop_assert_eq!(whole.len(), requests.len());
        prop_assert_eq!(split.len(), whole.len());
        for ((got_whole, got_split), (method, path, _, body)) in
            whole.iter().zip(&split).zip(&requests)
        {
            prop_assert_eq!(&got_whole.method, method);
            prop_assert_eq!(&got_whole.path, path);
            prop_assert_eq!(&got_whole.body, body);
            prop_assert_eq!(&got_split.method, &got_whole.method);
            prop_assert_eq!(&got_split.path, &got_whole.path);
            prop_assert_eq!(&got_split.body, &got_whole.body);
            prop_assert_eq!(got_split.keep_alive, got_whole.keep_alive);
            prop_assert_eq!(got_split.headers.len(), got_whole.headers.len());
        }
    }

    /// Every single-byte split point of a pipelined two-request stream
    /// yields the same parse — the exhaustive version of the invariant for
    /// the boundary the reactor actually hits most (one request ending
    /// inside one read, the next beginning in it).
    #[test]
    fn every_split_point_of_a_pipelined_pair(
        first in request_strategy(),
        second in request_strategy(),
    ) {
        let (m1, p1, h1, b1) = first;
        let (m2, p2, h2, b2) = second;
        let mut stream = encode_request(&m1, &p1, &h1, &b1);
        stream.extend_from_slice(&encode_request(&m2, &p2, &h2, &b2));
        let whole = parse_fragmented(&stream, &[]).expect("parses");
        prop_assert_eq!(whole.len(), 2);
        for cut in 0..=stream.len() {
            let split = parse_fragmented(&stream, &[cut]).expect("parses at every cut");
            prop_assert_eq!(split.len(), 2, "cut at {}", cut);
            for (a, b) in whole.iter().zip(&split) {
                prop_assert_eq!(&a.method, &b.method);
                prop_assert_eq!(&a.path, &b.path);
                prop_assert_eq!(&a.body, &b.body);
            }
        }
    }

    /// Arbitrary garbage must never panic: every outcome (partial,
    /// complete, error) is acceptable, crashing is not. Errors must be
    /// sticky enough for the reactor's answer-and-close handling: a
    /// malformed prefix keeps erroring as more bytes arrive.
    #[test]
    fn garbage_never_panics(bytes in prop::collection::vec(any::<u8>(), 0..2048)) {
        let _ = parse_request(&bytes);
        // Feeding the same bytes incrementally must not panic either.
        let mut buf = Vec::new();
        for chunk in bytes.chunks(17) {
            buf.extend_from_slice(chunk);
            if drain(&mut buf).is_err() {
                break;
            }
        }
    }

    /// Chunked transfer encoding is out of scope for this server and must
    /// be rejected cleanly (never mis-framed as an empty-body request with
    /// trailing garbage).
    #[test]
    fn chunked_garbage_is_rejected_not_misframed(chunks in prop::collection::vec("[0-9a-f]{1,4}", 1..5)) {
        let mut stream = b"POST /v1/solve HTTP/1.1\r\ntransfer-encoding: chunked\r\n\r\n".to_vec();
        for chunk in &chunks {
            stream.extend_from_slice(chunk.as_bytes());
            stream.extend_from_slice(b"\r\nXXXX\r\n");
        }
        stream.extend_from_slice(b"0\r\n\r\n");
        prop_assert!(matches!(parse_request(&stream), Err(ParseError::Malformed(_))));
    }

    /// Oversized header lines are rejected even before their terminator
    /// arrives (header-flood defense), and the rejection is stable across
    /// fragmentation.
    #[test]
    fn oversized_header_line_rejected_at_any_fragmentation(extra in 1usize..64, cut in 0usize..9000) {
        let mut stream = b"GET / HTTP/1.1\r\nx-flood: ".to_vec();
        stream.extend(std::iter::repeat_n(b'a', 8 * 1024 + extra));
        // No terminator: a parser that waits for \r\n before checking the
        // limit would buffer unboundedly.
        let whole = parse_request(&stream);
        prop_assert!(matches!(whole, Err(ParseError::Malformed(_))), "{whole:?}");
        let result = parse_fragmented(&stream, &[cut.min(stream.len())]);
        prop_assert!(result.is_err());
    }

    /// Declared bodies above the limit answer 413-style errors instead of
    /// buffering; conflicting duplicate content-lengths are malformed.
    #[test]
    fn body_limits_and_conflicting_lengths(over in 1u64..1024, a in 0u64..100, delta in 1u64..100) {
        let too_big = format!(
            "POST /v1/solve HTTP/1.1\r\ncontent-length: {}\r\n\r\n",
            faircap::serve::http::MAX_BODY as u64 + over
        );
        prop_assert!(matches!(
            parse_request(too_big.as_bytes()),
            Err(ParseError::BodyTooLarge(_))
        ));
        let conflicting = format!(
            "POST / HTTP/1.1\r\ncontent-length: {a}\r\ncontent-length: {}\r\n\r\n",
            a + delta
        );
        prop_assert!(matches!(
            parse_request(conflicting.as_bytes()),
            Err(ParseError::Malformed(_))
        ));
    }
}
