//! Wire protocol v1: line-delimited JSON over TCP.
//!
//! One request per line, one response line per request, in order.
//! Requests are objects `{"v": 1, "id": "...", "method": "...",
//! "params": {...}}`; `params` may be omitted for parameterless
//! methods. Responses echo the id: `{"v": 1, "id": "...", "ok": {...}}`
//! on success, `{"v": 1, "id": "...", "err": {"code": "...",
//! "message": "..."}}` on failure. The envelope is versioned from day
//! one so a future v2 can coexist on the same port: a request whose
//! `v` is not [`PROTOCOL_VERSION`] is answered with a typed
//! `unsupported_version` error rather than dropped.
//!
//! A single request line is capped at [`MAX_LINE_BYTES`]; longer lines
//! are answered with an `oversized` error and the connection is closed
//! (the stream can no longer be framed reliably). Malformed JSON and
//! non-object requests get `bad_request` with a `null` id.
//!
//! [`parse_envelope`] reads a line with the vendored `serde_json`
//! reader and builds no tree but the echoed `id`: it decodes `v`, `id`
//! and `method` in whatever order they come, and keeps `params` as the
//! raw JSON text it was sent as, checked for syntax, for the method's
//! handler to decode into its own typed parameter struct.
//! The whole line is read before any field is judged, so a syntax error
//! anywhere in it is a `bad_request`, whatever else is wrong with the
//! request.

use serde::{DeError, Deserialize, Reader, Serialize, Value};
use std::borrow::Cow;

/// Protocol version spoken by this build.
pub const PROTOCOL_VERSION: u64 = 1;

/// Maximum accepted request-line length in bytes (including the
/// terminating newline). Generous for a full `sweep_cell` spec, small
/// enough to bound per-connection memory.
pub const MAX_LINE_BYTES: usize = 64 * 1024;

/// Error codes a response's `err.code` field can carry.
pub mod codes {
    /// The line was not a JSON object.
    pub const BAD_REQUEST: &str = "bad_request";
    /// The `v` field is present but not [`super::PROTOCOL_VERSION`].
    pub const UNSUPPORTED_VERSION: &str = "unsupported_version";
    /// The `method` is not one this server knows.
    pub const UNKNOWN_METHOD: &str = "unknown_method";
    /// `params` is missing, ill-typed, or violates model constraints.
    pub const BAD_PARAMS: &str = "bad_params";
    /// The request line exceeded [`super::MAX_LINE_BYTES`].
    pub const OVERSIZED: &str = "oversized";
    /// The server failed while computing a valid request.
    pub const INTERNAL: &str = "internal";
}

/// A typed protocol-level error: a stable machine-readable code plus a
/// human-readable message. Serializes as the `err` body.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct WireError {
    /// One of the [`codes`] constants.
    pub code: &'static str,
    /// Human-readable detail; never needed to dispatch on.
    pub message: String,
}

impl WireError {
    /// Builds an error from a code constant and message.
    pub fn new(code: &'static str, message: impl Into<String>) -> Self {
        WireError {
            code,
            message: message.into(),
        }
    }

    /// Shorthand for a [`codes::BAD_PARAMS`] error.
    pub fn bad_params(message: impl Into<String>) -> Self {
        WireError::new(codes::BAD_PARAMS, message)
    }
}

/// A parsed, envelope-validated request with its `params` as a tree.
#[derive(Debug, Clone)]
pub struct Request {
    /// Client-chosen correlation id, echoed verbatim in the response.
    pub id: Value,
    /// Method name.
    pub method: String,
    /// Method parameters (`Value::Null` when omitted).
    pub params: Value,
}

/// An envelope-validated request line, borrowing from it.
#[derive(Debug, Clone)]
pub struct Envelope<'a> {
    /// Client-chosen correlation id, echoed verbatim in the response.
    pub id: Value,
    /// Method name.
    pub method: Cow<'a, str>,
    /// The `params` value's JSON text, well formed; `None` when omitted.
    pub params: Option<&'a str>,
}

fn not_json(e: DeError) -> WireError {
    WireError::new(codes::BAD_REQUEST, format!("request is not JSON: {e}"))
}

/// Parses one request line into an [`Envelope`], validating the
/// envelope (object shape, protocol version, string method). Of
/// duplicate keys the last wins, and unknown keys are ignored.
///
/// # Errors
/// `bad_request` when the line is not JSON (first) or not an object
/// with `v` or `method`, `unsupported_version` when `v` is not
/// [`PROTOCOL_VERSION`], and `bad_request` when `v` or a string
/// `method` is missing.
pub fn parse_envelope(line: &str) -> Result<Envelope<'_>, WireError> {
    let mut r = Reader::new(line).map_err(not_json)?;
    // `Some` once the key was seen: whether `v` is the spoken version,
    // and the method when it is a string.
    let mut version: Option<bool> = None;
    let mut method: Option<Option<Cow<'_, str>>> = None;
    let mut id = Value::Null;
    let mut params = None;
    let object = r.peek() == Some(b'{');
    if object {
        r.object(|r, key| {
            match &*key {
                "v" => {
                    version = Some(match u64::read_json(r) {
                        Err(e) if e.is_syntax() => return Err(e),
                        v => v == Ok(PROTOCOL_VERSION),
                    });
                }
                "method" if r.peek() == Some(b'"') => method = Some(Some(r.string()?)),
                "method" => {
                    r.skip()?;
                    method = Some(None);
                }
                "id" => id = r.value()?,
                "params" => {
                    r.peek();
                    let start = r.pos();
                    r.skip()?;
                    params = Some(r.since(start));
                }
                _ => r.skip()?,
            }
            Ok(())
        })
    } else {
        r.skip()
    }
    .and_then(|()| r.end())
    .map_err(not_json)?;
    if !object || (version.is_none() && method.is_none()) {
        return Err(WireError::new(
            codes::BAD_REQUEST,
            "request must be an object with `v` and `method` fields",
        ));
    }
    match version {
        Some(true) => {}
        Some(false) => {
            return Err(WireError::new(
                codes::UNSUPPORTED_VERSION,
                format!(
                    "this server speaks v{PROTOCOL_VERSION}; re-send with \"v\":{PROTOCOL_VERSION}"
                ),
            ));
        }
        None => {
            return Err(WireError::new(
                codes::BAD_REQUEST,
                "request is missing the protocol version field `v`",
            ));
        }
    }
    let method = match method {
        Some(Some(m)) => m,
        Some(None) => {
            return Err(WireError::new(
                codes::BAD_REQUEST,
                "`method` must be a string",
            ));
        }
        None => {
            return Err(WireError::new(
                codes::BAD_REQUEST,
                "request is missing `method`",
            ));
        }
    };
    Ok(Envelope { id, method, params })
}

/// Parses one request line into a [`Request`]: [`parse_envelope`],
/// with `params` decoded into a tree for callers that read trees.
///
/// # Errors
/// As [`parse_envelope`].
pub fn parse_request(line: &str) -> Result<Request, WireError> {
    let env = parse_envelope(line)?;
    let params = match env.params {
        Some(text) => serde_json::from_str(text)
            .map_err(|e| WireError::new(codes::BAD_REQUEST, format!("request is not JSON: {e}")))?,
        None => Value::Null,
    };
    Ok(Request {
        id: env.id,
        method: env.method.into_owned(),
        params,
    })
}

/// One response line: `{"v":1,"id":<id>,"<key>":<body>}`, written
/// straight into one `String` (no trailing newline).
fn line(id: &Value, key: &str, body: impl Serialize) -> String {
    // Room for a short answer; a longer one grows the buffer once. A
    // larger start would leave short lines that a caller keeps (a
    // client's expected answers) holding unused capacity.
    let mut out = String::with_capacity(256);
    out.push_str("{\"v\":");
    PROTOCOL_VERSION.write_json(&mut out);
    out.push_str(",\"id\":");
    id.write_json(&mut out);
    out.push_str(",\"");
    out.push_str(key);
    out.push_str("\":");
    body.write_json(&mut out);
    out.push('}');
    out
}

/// Serializes a success response line (no trailing newline).
pub fn ok_line<T: Serialize>(id: &Value, payload: T) -> String {
    line(id, "ok", payload)
}

/// Serializes an error response line (no trailing newline). `id` is
/// `None` when the request could not be parsed far enough to learn it.
pub fn err_line(id: Option<&Value>, err: &WireError) -> String {
    line(id.unwrap_or(&Value::Null), "err", err)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_well_formed_request() {
        let r = parse_request(r#"{"v":1,"id":"a1","method":"ping","params":{"x":2}}"#).unwrap();
        assert_eq!(r.method, "ping");
        assert_eq!(r.id, Value::String("a1".into()));
        assert_eq!(r.params.get("x").and_then(Value::as_f64), Some(2.0));
    }

    #[test]
    fn params_and_id_are_optional() {
        let r = parse_request(r#"{"v":1,"method":"ping"}"#).unwrap();
        assert_eq!(r.id, Value::Null);
        assert_eq!(r.params, Value::Null);
    }

    #[test]
    fn rejects_non_json_and_missing_fields() {
        assert_eq!(
            parse_request("not json").unwrap_err().code,
            codes::BAD_REQUEST
        );
        assert_eq!(parse_request("[1,2]").unwrap_err().code, codes::BAD_REQUEST);
        assert_eq!(
            parse_request(r#"{"method":"ping"}"#).unwrap_err().code,
            codes::BAD_REQUEST
        );
        assert_eq!(
            parse_request(r#"{"v":1}"#).unwrap_err().code,
            codes::BAD_REQUEST
        );
        assert_eq!(
            parse_request(r#"{"v":1,"method":7}"#).unwrap_err().code,
            codes::BAD_REQUEST
        );
    }

    #[test]
    fn rejects_wrong_version_with_typed_code() {
        let e = parse_request(r#"{"v":2,"method":"ping"}"#).unwrap_err();
        assert_eq!(e.code, codes::UNSUPPORTED_VERSION);
        assert!(
            e.message.contains("v1"),
            "message names the spoken version: {e:?}"
        );
    }

    #[test]
    fn response_lines_round_trip_and_echo_id() {
        let id = Value::String("q-7".into());
        let ok = ok_line(&id, Value::Bool(true));
        let v: Value = serde_json::from_str(&ok).unwrap();
        assert_eq!(v.get("id"), Some(&id));
        assert_eq!(v.get("ok"), Some(&Value::Bool(true)));
        assert!(v.get("err").is_none());

        let err = err_line(None, &WireError::bad_params("phi out of range"));
        let v: Value = serde_json::from_str(&err).unwrap();
        assert_eq!(v.get("id"), Some(&Value::Null));
        let body = v.get("err").unwrap();
        assert_eq!(
            body.get("code"),
            Some(&Value::String(codes::BAD_PARAMS.into()))
        );
        assert!(!ok.contains('\n') && !err.contains('\n'), "one line each");
    }
}
