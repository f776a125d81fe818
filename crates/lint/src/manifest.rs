//! `lint-hotpaths.toml`: the analyzer's workspace manifest.
//!
//! A deliberately small TOML subset (tables, string values, string
//! arrays, comments) parsed by hand — the workspace builds
//! offline, so no `toml` crate. The manifest carries what the effect
//! engine cannot read from the code: how dynamic dispatch resolves,
//! which roots must never block, and which functions block by contract.
//!
//! ```toml
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
//! bodies do not show it syntactically. Wire-path files are not listed
//! here: a file is wire-path iff it carries the `#![deny(…)]` header
//! [`crate::lints::panic_path`] looks for.

use std::collections::BTreeMap;
use std::path::Path;

/// A workspace function: `crate::Type::method` or `crate::function`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FnRef {
    /// Crate directory name (with or without the `dcs-` prefix).
    pub krate: String,
    /// Function name as the parser qualifies it (`Type::method` or bare).
    pub func: String,
}

/// Parsed manifest contents.
#[derive(Debug, Clone, Default)]
pub struct Manifest {
    /// Dynamic-dispatch policy: bare method name → every workspace
    /// implementation a call through it may reach (the call graph takes
    /// the union).
    pub dispatch: BTreeMap<String, Vec<FnRef>>,
    /// Roots of async drain loops that must stay `BlocksOnIo`-free.
    pub async_roots: Vec<FnRef>,
    /// Functions that block by contract even when their bodies do not
    /// show it syntactically (e.g. a blocking device-read wrapper).
    pub declared_blocking: Vec<FnRef>,
}

/// Parse one `crate::function` reference (`dcs-` prefix optional).
fn parse_fn_ref(s: &str, what: &str) -> Result<FnRef, String> {
    let (krate, func) = s
        .split_once("::")
        .ok_or_else(|| format!("{what} entry `{s}` is not `crate::function`"))?;
    Ok(FnRef {
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

    fn fn_ref(krate: &str, func: &str) -> FnRef {
        FnRef {
            krate: krate.into(),
            func: func.into(),
        }
    }

    #[test]
    fn parses_all_sections() {
        // Comments, a multi-line array and a trailing comma, in each of
        // the three sections.
        let m = Manifest::parse(
            r#"
# policy file
[dispatch]
kv_get = [
    "dcs-core::CachingStore::kv_get",  # the caching store
    "dcs-core::LsmBackend::kv_get",
]

[async-shard]
roots = ["dcs-server::Shard::run"]  # the drain loop

[effects]
blocking = ["dcs-flashsim::FlashDevice::read"]
"#,
        )
        .unwrap();
        assert_eq!(m.dispatch["kv_get"].len(), 2);
        assert_eq!(m.async_roots.len(), 1);
        assert_eq!(m.declared_blocking.len(), 1);
    }

    #[test]
    fn parses_effect_policy_sections() {
        let m = Manifest::parse(
            r#"
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
        assert_eq!(m.dispatch.len(), 2);
        assert_eq!(
            m.dispatch["kv_get"],
            vec![
                fn_ref("core", "CachingStore::kv_get"),
                fn_ref("core", "LsmBackend::kv_get")
            ]
        );
        assert_eq!(m.async_roots, vec![fn_ref("server", "Shard::run")]);
        assert_eq!(
            m.declared_blocking,
            vec![fn_ref("flashsim", "FlashDevice::read")]
        );
    }

    #[test]
    fn bad_dispatch_entry_is_an_error() {
        assert!(Manifest::parse("[dispatch]\nkv_get = [\"bare_name\"]").is_err());
    }

    #[test]
    fn bad_syntax_is_an_error() {
        assert!(Manifest::parse("[effects]\nblocking just/a/path").is_err());
    }

    #[test]
    fn empty_manifest_is_fine() {
        let m = Manifest::parse("").unwrap();
        assert!(m.dispatch.is_empty());
        assert!(m.async_roots.is_empty());
    }
}
