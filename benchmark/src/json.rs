//! The workspace's JSON value (`serde::Json`, rendered and parsed by
//! `serde_json`) plus the few constructors and accessors the reports need.

pub use serde::Json;

pub fn obj<K: Into<String>>(pairs: impl IntoIterator<Item = (K, Json)>) -> Json {
    Json::Obj(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
}

pub fn text(s: impl Into<String>) -> Json {
    Json::Str(s.into())
}

pub fn nums(values: &[f64]) -> Json {
    Json::Arr(values.iter().map(|v| Json::F64(*v)).collect())
}

/// Read access by method call, so look-ups chain with `?`.
pub trait JsonExt {
    fn get(&self, key: &str) -> Option<&Json>;
    fn as_f64(&self) -> Option<f64>;
    fn as_arr(&self) -> Option<&[Json]>;
}

impl JsonExt for Json {
    fn get(&self, key: &str) -> Option<&Json> {
        self.field(key).ok()
    }

    fn as_f64(&self) -> Option<f64> {
        serde::Deserialize::from_json(self).ok()
    }

    fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }
}

/// `serde_json` renders `Serialize` types, and the tree is not one itself.
struct Tree<'a>(&'a Json);

impl serde::Serialize for Tree<'_> {
    fn to_json(&self) -> Json {
        self.0.clone()
    }
}

/// Compact single-line rendering (the result line the gate parses).
pub fn to_line(value: &Json) -> String {
    serde_json::to_string(&Tree(value)).expect("rendering a tree cannot fail")
}

/// Indented rendering for files people read.
pub fn to_pretty(value: &Json) -> String {
    let mut text =
        serde_json::to_string_pretty(&Tree(value)).expect("rendering a tree cannot fail");
    text.push('\n');
    text
}

pub fn parse(text: &str) -> Result<Json, String> {
    serde_json::parse(text).map_err(|err| err.to_string())
}
