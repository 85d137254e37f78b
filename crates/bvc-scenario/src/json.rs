//! The scenario crate's JSON value is the workspace's one:
//! [`bvc_trace::json::Json`] (deterministic writer, reader).

pub use bvc_trace::json::Json;
