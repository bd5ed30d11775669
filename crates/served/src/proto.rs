//! The request/response vocabulary of the service protocol.
//!
//! Every frame payload is one JSON object. Requests carry an `op` field
//! selecting the operation; responses always carry `ok` (and `error`
//! when `ok` is false). Request identity is content-addressed: a
//! [`request_key`] is the FNV-64 of the experiment kind plus the
//! *canonicalized* parameter object, so two clients submitting the same
//! experiment — even with differently-ordered JSON fields — share one
//! request, one sweep, and one cache entry.

use liteworp_runner::cache::fnv64;
use liteworp_runner::Json;

/// One parsed client request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Enqueue an experiment sweep (idempotent per [`request_key`]).
    Submit {
        /// Catalog kind (see `liteworp_bench::catalog::KINDS`).
        kind: String,
        /// Parameter object (possibly `Null` for all defaults).
        params: Json,
        /// Also run one instrumented seed and retain its telemetry
        /// trace for subscribers.
        trace: bool,
    },
    /// Report a request's phase and result summary.
    Status {
        /// The request key, as printed in the submit response.
        req: u64,
    },
    /// Cancel a request that is still queued (running sweeps finish).
    Cancel {
        /// The request key.
        req: u64,
    },
    /// Stream progress / telemetry / completion frames for a request.
    Subscribe {
        /// The request key.
        req: u64,
    },
    /// Live daemon introspection: queue depth, drain concurrency, cache
    /// hit/miss counters, WAL size, per-phase latency quantiles, uptime.
    Stats,
    /// Per-shard health block of a shard front (health, restart and
    /// reroute counters, worker pids). A plain daemon answers an error.
    Shards,
    /// Liveness probe.
    Ping,
    /// Stop accepting work and shut the daemon down cleanly.
    Shutdown,
}

impl Request {
    /// Parses a request payload. `Err` carries a client-facing reason.
    pub fn parse(payload: &str) -> Result<Request, String> {
        let json = Json::parse(payload).map_err(|e| format!("malformed JSON: {e}"))?;
        let op = json
            .get("op")
            .and_then(Json::as_str)
            .ok_or("missing string field 'op'")?;
        let req_field = |json: &Json| -> Result<u64, String> {
            let text = json
                .get("req")
                .and_then(Json::as_str)
                .ok_or("missing string field 'req'")?;
            parse_key(text).ok_or_else(|| format!("'req' is not a 16-hex request key: {text:?}"))
        };
        match op {
            "submit" => {
                let kind = json
                    .get("kind")
                    .and_then(Json::as_str)
                    .ok_or("submit needs a string field 'kind'")?
                    .to_string();
                let params = json.get("params").cloned().unwrap_or(Json::Null);
                if !matches!(params, Json::Obj(_) | Json::Null) {
                    return Err("'params' must be an object when present".to_string());
                }
                let trace = json.get("trace").and_then(Json::as_bool).unwrap_or(false);
                Ok(Request::Submit {
                    kind,
                    params,
                    trace,
                })
            }
            "status" => Ok(Request::Status {
                req: req_field(&json)?,
            }),
            "cancel" => Ok(Request::Cancel {
                req: req_field(&json)?,
            }),
            "subscribe" => Ok(Request::Subscribe {
                req: req_field(&json)?,
            }),
            "stats" => Ok(Request::Stats),
            "shards" => Ok(Request::Shards),
            "ping" => Ok(Request::Ping),
            "shutdown" => Ok(Request::Shutdown),
            other => Err(format!(
                "unknown op {other:?} (known: submit, status, cancel, subscribe, stats, shards, \
                 ping, shutdown)"
            )),
        }
    }
}

/// The content-addressed identity of a submit: FNV-64 over the kind and
/// the canonicalized parameter object.
pub fn request_key(kind: &str, params: &Json) -> u64 {
    fnv64(format!("{kind}\n{}", canonical(params)).as_bytes())
}

/// Renders a request key the way the protocol prints it (16 hex digits).
pub fn format_key(key: u64) -> String {
    format!("{key:016x}")
}

/// Parses a printed request key back.
pub fn parse_key(text: &str) -> Option<u64> {
    (text.len() == 16).then(|| u64::from_str_radix(text, 16).ok())?
}

/// Canonical dump: objects with keys sorted recursively, so field order
/// on the wire never changes a request's identity.
pub fn canonical(json: &Json) -> String {
    fn sort(json: &Json) -> Json {
        match json {
            Json::Obj(pairs) => {
                let mut sorted: Vec<(String, Json)> =
                    pairs.iter().map(|(k, v)| (k.clone(), sort(v))).collect();
                sorted.sort_by(|a, b| a.0.cmp(&b.0));
                Json::Obj(sorted)
            }
            Json::Arr(items) => Json::Arr(items.iter().map(sort).collect()),
            other => other.clone(),
        }
    }
    sort(json).dump()
}

/// A success response from the given `(key, value)` pairs, with
/// `"ok": true` prepended.
pub fn ok_response<K: Into<String>>(pairs: impl IntoIterator<Item = (K, Json)>) -> String {
    let mut all = vec![("ok".to_string(), Json::from(true))];
    all.extend(pairs.into_iter().map(|(k, v)| (k.into(), v)));
    Json::Obj(all).dump()
}

/// An error response: `{"ok":false,"error":<reason>}`.
pub fn err_response(reason: &str) -> String {
    Json::object([("ok", Json::from(false)), ("error", Json::from(reason))]).dump()
}

/// The error response for a request key the daemon does not know.
pub fn unknown_request(req: u64) -> String {
    err_response(&format!("unknown request {}", format_key(req)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn submit_parses_with_defaults() {
        let r = Request::parse(r#"{"op":"submit","kind":"fig9"}"#).unwrap();
        assert_eq!(
            r,
            Request::Submit {
                kind: "fig9".into(),
                params: Json::Null,
                trace: false
            }
        );
        let r = Request::parse(
            r#"{"op":"submit","kind":"scenario","params":{"nodes":20},"trace":true}"#,
        )
        .unwrap();
        match r {
            Request::Submit { kind, trace, .. } => {
                assert_eq!(kind, "scenario");
                assert!(trace);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn malformed_requests_are_typed_errors() {
        assert!(Request::parse("not json")
            .unwrap_err()
            .contains("malformed"));
        assert!(Request::parse(r#"{"kind":"fig9"}"#)
            .unwrap_err()
            .contains("'op'"));
        assert!(Request::parse(r#"{"op":"nope"}"#)
            .unwrap_err()
            .contains("unknown op"));
        assert!(Request::parse(r#"{"op":"submit"}"#)
            .unwrap_err()
            .contains("'kind'"));
        assert!(Request::parse(r#"{"op":"status"}"#)
            .unwrap_err()
            .contains("'req'"));
        assert!(Request::parse(r#"{"op":"status","req":"xyz"}"#)
            .unwrap_err()
            .contains("16-hex"));
        assert!(
            Request::parse(r#"{"op":"submit","kind":"fig9","params":[1]}"#)
                .unwrap_err()
                .contains("object")
        );
    }

    #[test]
    fn stats_parses_and_is_listed_in_the_unknown_op_hint() {
        assert_eq!(Request::parse(r#"{"op":"stats"}"#).unwrap(), Request::Stats);
        let hint = Request::parse(r#"{"op":"nope"}"#).unwrap_err();
        assert!(hint.contains("stats"), "{hint}");
    }

    #[test]
    fn shards_parses_and_is_listed_in_the_unknown_op_hint() {
        assert_eq!(
            Request::parse(r#"{"op":"shards"}"#).unwrap(),
            Request::Shards
        );
        let hint = Request::parse(r#"{"op":"nope"}"#).unwrap_err();
        assert!(hint.contains("shards"), "{hint}");
    }

    #[test]
    fn request_key_ignores_field_order_but_not_values() {
        let a = Json::parse(r#"{"nodes":20,"seeds":2}"#).unwrap();
        let b = Json::parse(r#"{"seeds":2,"nodes":20}"#).unwrap();
        let c = Json::parse(r#"{"nodes":21,"seeds":2}"#).unwrap();
        assert_eq!(request_key("fig9", &a), request_key("fig9", &b));
        assert_ne!(request_key("fig9", &a), request_key("fig9", &c));
        assert_ne!(request_key("fig9", &a), request_key("fig8", &a));
    }

    #[test]
    fn keys_round_trip_through_their_printed_form() {
        let key = request_key("sweep", &Json::Null);
        assert_eq!(parse_key(&format_key(key)), Some(key));
        assert_eq!(parse_key("zzz"), None);
        assert_eq!(parse_key("0123456789abcdef0"), None, "too long");
    }

    #[test]
    fn responses_have_the_ok_discipline() {
        let ok = ok_response([("req", Json::from("00ff"))]);
        let parsed = Json::parse(&ok).unwrap();
        assert_eq!(parsed.get("ok").and_then(Json::as_bool), Some(true));
        let err = err_response("nope");
        let parsed = Json::parse(&err).unwrap();
        assert_eq!(parsed.get("ok").and_then(Json::as_bool), Some(false));
        assert_eq!(parsed.get("error").and_then(Json::as_str), Some("nope"));
    }
}
