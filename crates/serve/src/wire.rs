//! NDJSON wire format: one JSON object per line, in both directions.
//!
//! A request line is either a **query** (`scenario` present) or a
//! **control command** (`cmd` present):
//!
//! ```text
//! {"id": 7, "scenario": {"graph": ..., "routing": ..., "traffic": ...}}
//! {"cmd": "shutdown"}
//! ```
//!
//! Every query gets exactly one response line, carrying the echoed `id` and
//! either per-pair predictions in canonical pair order or a typed error
//! string (never both):
//!
//! ```text
//! {"id": 7, "predictions": [{"delay_s": ..., ...}, ...], "error": null}
//! {"id": 8, "predictions": null, "error": "query shed: queue full (cap 256)"}
//! ```
//!
//! Non-finite floats serialize as `null` per the workspace's JSON dialect
//! (a predictor without a jitter head reports `jitter_s2: null`), and the
//! `float_roundtrip` feature keeps every finite `f64` bit-exact across a
//! serialize/deserialize cycle — the byte-identical served-vs-offline diff
//! in `scripts/check.sh` depends on both.

use routenet_core::{Prediction, Scenario};
use serde::{Deserialize, Serialize};

/// One request line: a what-if query or a control command.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Request {
    /// Client-chosen query id, echoed verbatim on the response so clients
    /// can match answers to in-flight queries.
    #[serde(default)]
    pub id: u64,
    /// The what-if scenario to predict. `None` for control commands.
    #[serde(default)]
    pub scenario: Option<Scenario>,
    /// Control command; `"shutdown"` drains the queue and stops the daemon.
    #[serde(default)]
    pub cmd: Option<String>,
}

/// One response line. Exactly one of `predictions` / `error` is set, except
/// for control-command acknowledgements where both are `None`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Response {
    /// Echo of the request id (0 when the request was too malformed to
    /// carry one).
    #[serde(default)]
    pub id: u64,
    /// Per-pair KPI predictions in canonical pair order.
    #[serde(default)]
    pub predictions: Option<Vec<Prediction>>,
    /// Typed error description when the query could not be answered.
    #[serde(default)]
    pub error: Option<String>,
}

impl Response {
    /// Successful answer for query `id`.
    pub fn ok(id: u64, predictions: Vec<Prediction>) -> Self {
        Response {
            id,
            predictions: Some(predictions),
            error: None,
        }
    }

    /// Failed answer for query `id`.
    pub fn err(id: u64, error: impl Into<String>) -> Self {
        Response {
            id,
            predictions: None,
            error: Some(error.into()),
        }
    }

    /// Control-command acknowledgement.
    pub fn ack(id: u64) -> Self {
        Response {
            id,
            predictions: None,
            error: None,
        }
    }

    /// Serialize to one wire line (no trailing newline).
    #[expect(
        clippy::expect_used,
        reason = "in-memory numeric data always serializes"
    )]
    pub fn to_line(&self) -> String {
        serde_json::to_string(self).expect("response serializes")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_parses_query_and_command_forms() {
        let r: Request = serde_json::from_str(r#"{"cmd": "shutdown"}"#).unwrap();
        assert_eq!(r.cmd.as_deref(), Some("shutdown"));
        assert!(r.scenario.is_none());
        assert_eq!(r.id, 0);

        let r: Request = serde_json::from_str(r#"{"id": 42}"#).unwrap();
        assert_eq!(r.id, 42);
        assert!(r.scenario.is_none() && r.cmd.is_none());
    }

    #[test]
    fn response_roundtrips_nan_as_null() {
        let line = Response::ok(
            3,
            vec![Prediction {
                delay_s: 0.25,
                jitter_s2: f64::NAN,
                drop_prob: f64::NAN,
            }],
        )
        .to_line();
        assert!(line.contains("null"), "{line}");
        let back: Response = serde_json::from_str(&line).unwrap();
        assert_eq!(back.id, 3);
        let p = &back.predictions.unwrap()[0];
        assert_eq!(p.delay_s.to_bits(), 0.25f64.to_bits());
        assert!(p.jitter_s2.is_nan() && p.drop_prob.is_nan());
        assert!(back.error.is_none());
    }

    #[test]
    fn error_response_carries_no_predictions() {
        let line = Response::err(9, "queue full").to_line();
        let back: Response = serde_json::from_str(&line).unwrap();
        assert!(back.predictions.is_none());
        assert_eq!(back.error.as_deref(), Some("queue full"));
    }
}
