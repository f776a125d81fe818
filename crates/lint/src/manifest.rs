//! `lint-hotpaths.toml`: the analyzer's workspace manifest.
//!
//! A deliberately small TOML subset (tables, string values, string
//! arrays, comments) parsed by hand — the workspace builds
//! offline, so no `toml` crate. The manifest carries everything that is
//! *policy* rather than *code*: which functions are hot paths, which
//! files may touch the real clock, which modules must be panic-free,
//! and which crates owe `// ORDERING:` justifications.
//!
//! ```toml
//! [hotpath]
//! functions = ["dcs-server::Shard::reply_read"]
//!
//! [clock]
//! allow = ["crates/flashsim/", "crates/telemetry/src/clock.rs"]
//!
//! [wire-path]
//! files = ["crates/server/src/protocol.rs"]
//! send_files = ["crates/server/src/server.rs"]
//! bounded_senders = ["mailbox", "outbox"]
//!
//! [ordering]
//! crates = ["ebr", "bwtree", "llama"]
//!
//! [dispatch]
//! kv_get = ["dcs-core::CachingStore::kv_get", "dcs-core::LsmBackend::kv_get"]
//!
//! [async-shard]
//! roots = ["dcs-server::Shard::run"]
//!
//! [effects]
//! blocking = ["dcs-flashsim::FlashDevice::read"]
//! ```
//!
//! `[dispatch]` is the interprocedural engine's answer to dynamic
//! dispatch: a bare method call (`backend.kv_get(…)`) cannot be resolved
//! by type, so the manifest names every implementation the call may
//! reach and the call graph takes their union. `[async-shard] roots`
//! name the drain loops that must stay non-blocking, and `[effects]
//! blocking` declares functions that block by contract even when their
//! bodies do not show it syntactically.

use std::collections::BTreeMap;
use std::path::Path;

/// A hot-path root: `crate::Type::method` or `crate::function`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HotPath {
    /// Crate directory name (with or without the `dcs-` prefix).
    pub krate: String,
    /// Function name as the parser qualifies it (`Type::method` or bare).
    pub func: String,
}

/// Parsed manifest contents.
#[derive(Debug, Clone, Default)]
pub struct Manifest {
    /// Functions whose reachable code must stay allocation/lock-free.
    pub hotpaths: Vec<HotPath>,
    /// Path prefixes (workspace-relative) allowed to use the real clock.
    pub clock_allow: Vec<String>,
    /// Wire-path files that must be panic-free.
    pub wire_files: Vec<String>,
    /// Crates whose `Ordering::Relaxed` uses need `// ORDERING:`.
    pub ordering_crates: Vec<String>,
    /// Dynamic-dispatch policy: bare method name → every workspace
    /// implementation a call through it may reach (the call graph takes
    /// the union).
    pub dispatch: BTreeMap<String, Vec<HotPath>>,
    /// Roots of async drain loops that must stay `BlocksOnIo`-free.
    pub async_roots: Vec<HotPath>,
    /// Functions that block by contract even when their bodies do not
    /// show it syntactically (e.g. a blocking device-read wrapper).
    pub declared_blocking: Vec<HotPath>,
    /// Files whose channel sends must be bounded; empty means "same as
    /// `wire_files`".
    pub wire_send_files: Vec<String>,
    /// Receiver field names (last path segment) that are known bounded
    /// mailboxes: `.send()` through them answers BUSY, never blocks.
    pub bounded_senders: Vec<String>,
}

impl Manifest {
    /// The bounded-send lint's file scope (`send_files`, defaulting to
    /// the panic-free wire files).
    pub fn send_scope(&self) -> &[String] {
        if self.wire_send_files.is_empty() {
            &self.wire_files
        } else {
            &self.wire_send_files
        }
    }
}

/// Parse one `crate::function` reference (`dcs-` prefix optional).
fn parse_fn_ref(s: &str, what: &str) -> Result<HotPath, String> {
    let (krate, func) = s
        .split_once("::")
        .ok_or_else(|| format!("{what} entry `{s}` is not `crate::function`"))?;
    Ok(HotPath {
        krate: krate.trim_start_matches("dcs-").to_string(),
        func: func.to_string(),
    })
}

impl Manifest {
    /// Parse a manifest file.
    pub fn load(path: &Path) -> Result<Manifest, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read manifest {}: {e}", path.display()))?;
        Self::parse(&text)
    }

    /// Parse manifest text.
    pub fn parse(text: &str) -> Result<Manifest, String> {
        let tables = parse_toml_subset(text)?;
        let mut m = Manifest::default();
        if let Some(t) = tables.get("hotpath") {
            for f in t.get_array("functions") {
                m.hotpaths.push(parse_fn_ref(&f, "hotpath")?);
            }
        }
        if let Some(t) = tables.get("clock") {
            m.clock_allow = t.get_array("allow");
        }
        if let Some(t) = tables.get("wire-path") {
            m.wire_files = t.get_array("files");
            m.wire_send_files = t.get_array("send_files");
            m.bounded_senders = t.get_array("bounded_senders");
        }
        if let Some(t) = tables.get("dispatch") {
            for (method, _) in t.values.iter() {
                let mut targets = Vec::new();
                for s in t.get_array(method) {
                    targets.push(parse_fn_ref(&s, "dispatch")?);
                }
                m.dispatch.insert(method.clone(), targets);
            }
        }
        if let Some(t) = tables.get("async-shard") {
            for f in t.get_array("roots") {
                m.async_roots.push(parse_fn_ref(&f, "async-shard")?);
            }
        }
        if let Some(t) = tables.get("effects") {
            for f in t.get_array("blocking") {
                m.declared_blocking.push(parse_fn_ref(&f, "effects")?);
            }
        }
        if let Some(t) = tables.get("ordering") {
            m.ordering_crates = t
                .get_array("crates")
                .into_iter()
                .map(|c| c.trim_start_matches("dcs-").to_string())
                .collect();
        }
        Ok(m)
    }
}

/// One `[table]`'s key/value pairs.
#[derive(Debug, Default)]
struct TomlTable {
    values: BTreeMap<String, TomlValue>,
}

#[derive(Debug)]
enum TomlValue {
    Str(String),
    Array(Vec<String>),
}

impl TomlTable {
    fn get_array(&self, key: &str) -> Vec<String> {
        match self.values.get(key) {
            Some(TomlValue::Array(v)) => v.clone(),
            Some(TomlValue::Str(s)) => vec![s.clone()],
            _ => Vec::new(),
        }
    }
}

/// Parse `[table]` headers and `key = value` lines. Arrays may span
/// multiple lines. Unknown syntax is an error: the manifest is policy
/// and silent misparses would silently unlint.
fn parse_toml_subset(text: &str) -> Result<BTreeMap<String, TomlTable>, String> {
    let mut tables: BTreeMap<String, TomlTable> = BTreeMap::new();
    let mut current = String::new();
    let mut lines = text.lines().enumerate().peekable();
    while let Some((ln, raw)) = lines.next() {
        let line = strip_comment(raw).trim().to_string();
        if line.is_empty() {
            continue;
        }
        if let Some(name) = line.strip_prefix('[').and_then(|s| s.strip_suffix(']')) {
            current = name.trim().trim_matches('[').trim_matches(']').to_string();
            tables.entry(current.clone()).or_default();
            continue;
        }
        let (key, mut val) = line
            .split_once('=')
            .map(|(k, v)| (k.trim().to_string(), v.trim().to_string()))
            .ok_or_else(|| format!("manifest line {}: expected `key = value`", ln + 1))?;
        // Multi-line array: keep consuming lines until the bracket closes.
        if val.starts_with('[') && !balanced(&val) {
            for (_, cont) in lines.by_ref() {
                val.push(' ');
                val.push_str(strip_comment(cont).trim());
                if balanced(&val) {
                    break;
                }
            }
        }
        let value = parse_value(&val).map_err(|e| format!("manifest line {}: {e}", ln + 1))?;
        tables
            .entry(current.clone())
            .or_default()
            .values
            .insert(key, value);
    }
    Ok(tables)
}

fn strip_comment(line: &str) -> &str {
    // `#` starts a comment unless inside a string.
    let mut in_str = false;
    for (i, c) in line.char_indices() {
        match c {
            '"' => in_str = !in_str,
            '#' if !in_str => return &line[..i],
            _ => {}
        }
    }
    line
}

fn balanced(val: &str) -> bool {
    let mut depth = 0i32;
    let mut in_str = false;
    for c in val.chars() {
        match c {
            '"' => in_str = !in_str,
            '[' if !in_str => depth += 1,
            ']' if !in_str => depth -= 1,
            _ => {}
        }
    }
    depth == 0
}

fn parse_value(val: &str) -> Result<TomlValue, String> {
    let v = val.trim();
    if let Some(s) = v.strip_prefix('"').and_then(|s| s.strip_suffix('"')) {
        return Ok(TomlValue::Str(s.to_string()));
    }
    if let Some(inner) = v.strip_prefix('[').and_then(|s| s.strip_suffix(']')) {
        let mut items = Vec::new();
        for part in split_top_commas(inner) {
            let p = part.trim();
            if p.is_empty() {
                continue;
            }
            match parse_value(p)? {
                TomlValue::Str(s) => items.push(s),
                _ => return Err(format!("array item `{p}` is not a string")),
            }
        }
        return Ok(TomlValue::Array(items));
    }
    Err(format!("unsupported value `{v}`"))
}

fn split_top_commas(s: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut cur = String::new();
    let mut in_str = false;
    for c in s.chars() {
        match c {
            '"' => {
                in_str = !in_str;
                cur.push(c);
            }
            ',' if !in_str => {
                out.push(std::mem::take(&mut cur));
            }
            _ => cur.push(c),
        }
    }
    if !cur.trim().is_empty() {
        out.push(cur);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_all_sections() {
        let m = Manifest::parse(
            r#"
# policy file
[hotpath]
functions = [
    "dcs-server::Shard::reply_read",  # the request loop
    "dcs-telemetry::Counter::add",
]

[clock]
allow = ["crates/flashsim/", "crates/telemetry/src/clock.rs"]

[wire-path]
files = ["crates/server/src/protocol.rs"]

[ordering]
crates = ["dcs-ebr", "bwtree"]
"#,
        )
        .unwrap();
        assert_eq!(
            m.hotpaths,
            vec![
                HotPath {
                    krate: "server".into(),
                    func: "Shard::reply_read".into()
                },
                HotPath {
                    krate: "telemetry".into(),
                    func: "Counter::add".into()
                },
            ]
        );
        assert_eq!(m.clock_allow.len(), 2);
        assert_eq!(m.wire_files, vec!["crates/server/src/protocol.rs"]);
        assert_eq!(m.ordering_crates, vec!["ebr", "bwtree"]);
    }

    #[test]
    fn parses_effect_policy_sections() {
        let m = Manifest::parse(
            r#"
[wire-path]
files = ["crates/server/src/protocol.rs"]
send_files = ["crates/server/src/server.rs", "crates/server/src/shard.rs"]
bounded_senders = ["mailbox", "outbox"]

[dispatch]
kv_get = ["dcs-core::CachingStore::kv_get", "dcs-core::LsmBackend::kv_get"]
deliver = ["dcs-server::ConnState::deliver"]

[async-shard]
roots = ["dcs-server::Shard::run"]

[effects]
blocking = ["dcs-flashsim::FlashDevice::read"]
"#,
        )
        .unwrap();
        assert_eq!(m.wire_send_files.len(), 2);
        assert_eq!(m.send_scope(), &m.wire_send_files[..]);
        assert_eq!(m.bounded_senders, vec!["mailbox", "outbox"]);
        assert_eq!(m.dispatch.len(), 2);
        assert_eq!(
            m.dispatch["kv_get"],
            vec![
                HotPath {
                    krate: "core".into(),
                    func: "CachingStore::kv_get".into()
                },
                HotPath {
                    krate: "core".into(),
                    func: "LsmBackend::kv_get".into()
                },
            ]
        );
        assert_eq!(
            m.async_roots,
            vec![HotPath {
                krate: "server".into(),
                func: "Shard::run".into()
            }]
        );
        assert_eq!(
            m.declared_blocking,
            vec![HotPath {
                krate: "flashsim".into(),
                func: "FlashDevice::read".into()
            }]
        );
    }

    #[test]
    fn send_scope_defaults_to_wire_files() {
        let m = Manifest::parse("[wire-path]\nfiles = [\"crates/x/src/a.rs\"]").unwrap();
        assert_eq!(m.send_scope(), &m.wire_files[..]);
    }

    #[test]
    fn bad_dispatch_entry_is_an_error() {
        assert!(Manifest::parse("[dispatch]\nkv_get = [\"bare_name\"]").is_err());
    }

    #[test]
    fn bad_hotpath_entry_is_an_error() {
        assert!(Manifest::parse("[hotpath]\nfunctions = [\"no_crate_sep\"]").is_err());
    }

    #[test]
    fn bad_syntax_is_an_error() {
        assert!(Manifest::parse("[clock]\nallow just/a/path").is_err());
    }

    #[test]
    fn empty_manifest_is_fine() {
        let m = Manifest::parse("").unwrap();
        assert!(m.hotpaths.is_empty());
        assert!(m.clock_allow.is_empty());
    }
}
