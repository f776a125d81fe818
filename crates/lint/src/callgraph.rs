//! The workspace call graph: one node per non-test function, edges for
//! every call the resolver can name a target for.
//!
//! Resolution is deliberately conservative — an edge exists only when
//! the target is certain, because a wrong edge turns into a wrong
//! transitive finding three crates away:
//!
//! * **Path calls** resolve by crate: `dcs_core::helper(…)` and
//!   `dcs_core::Type::method(…)` map `dcs_x` to `crates/x`;
//!   `crate::`/`self::`/`super::` stay in the caller's crate; `Self::m`
//!   uses the enclosing impl type. `std::`/`core::`/external paths get
//!   no edge (their *effects* are modelled as intrinsics instead).
//! * **Method calls** (`recv.name(…)`) resolve through the manifest's
//!   `[dispatch]` table (the policy answer to dynamic dispatch: the
//!   edge is the union of the listed implementations), else to the
//!   unique workspace method of that name — unless the name shadows a
//!   common `std` method (`push`, `lock`, `send`, …), where guessing
//!   would wire arbitrary std calls into workspace functions.
//! * **Bare calls** (`helper(…)`) resolve same-crate first, then to a
//!   globally unique free function; two candidates mean no edge.
//!
//! The walk that finds calls also models guard scopes (ported from the
//! lock-order lint: block frames, statement temporaries, `drop(g)`),
//! so every call site and lock site knows which lock labels were held
//! at it — the raw material for workspace lock-order analysis — and
//! extracts the intrinsic [`EffectSite`]s the effect inference seeds
//! from.

use crate::effects::{site_waived, Effect, EffectSite};
use crate::lexer::Tok;
use crate::manifest::Manifest;
use crate::source::{FnItem, SourceFile};
use std::collections::BTreeMap;

/// Index into [`CallGraph::nodes`].
pub type NodeId = usize;

/// One lock acquisition site (`.lock()` / zero-arg `.read()` /
/// `.write()`).
#[derive(Debug, Clone)]
pub struct LockSite {
    /// 1-based line.
    pub line: u32,
    /// Crate-qualified label: `crate:receiver` (`server:self.state`).
    pub label: String,
    /// Which method acquired it (`lock` / `read` / `write`).
    pub method: String,
    /// Labels already held when this one was acquired, outermost first.
    pub held: Vec<String>,
    /// True when the same label was already held (self-deadlock).
    pub recursive: bool,
}

/// One resolved call site.
#[derive(Debug, Clone)]
pub struct CallSite {
    /// 1-based line.
    pub line: u32,
    /// What the call looked like in source (`dcs_core::helper`,
    /// `.kv_get`).
    pub display: String,
    /// Resolved targets (more than one only for `[dispatch]` methods).
    pub targets: Vec<NodeId>,
    /// Lock labels held across the call, outermost first.
    pub held: Vec<String>,
}

/// One function in the graph.
#[derive(Debug)]
pub struct Node {
    /// Index into the analysis' file slice.
    pub file: usize,
    /// Index into that file's `fns`.
    pub fn_idx: usize,
    /// Owning crate (directory name, no `dcs-` prefix).
    pub krate: String,
    /// Qualified name (`Type::method` or bare).
    pub name: String,
    /// Unqualified name.
    pub short: String,
    /// Report name: `dcs-<crate>::<name>`.
    pub display: String,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// Resolved call sites, in body order.
    pub calls: Vec<CallSite>,
    /// Lock acquisition sites, in body order.
    pub locks: Vec<LockSite>,
    /// Intrinsic effect sites, in body order.
    pub intrinsics: Vec<EffectSite>,
}

/// The whole-workspace graph plus its SCC decomposition.
pub struct CallGraph {
    /// All non-test functions.
    pub nodes: Vec<Node>,
    /// SCCs in callee-first (reverse topological) order — the fixpoint
    /// processing order.
    pub sccs: Vec<Vec<NodeId>>,
    /// `scc_of[node]` = index into `sccs`.
    pub scc_of: Vec<usize>,
    /// `(crate, qualified-name)` → nodes.
    by_qual: BTreeMap<(String, String), Vec<NodeId>>,
}

/// Method names that shadow common `std`/collection methods: a bare
/// `.name(…)` call never resolves to a workspace function through them
/// even if that function is globally unique — `vec.push(x)` must not
/// become an edge into some crate's `Queue::push`. The `[dispatch]`
/// table overrides this list explicitly.
#[rustfmt::skip]
const STD_SHADOW: &[&str] = &[
    "add", "all", "and_then", "any", "as_mut", "as_ref", "clear", "clone", "cloned", "cmp",
    "collect", "compare_exchange", "compare_exchange_weak", "contains", "contains_key", "count",
    "drain", "drop", "end", "entry", "eq", "expect", "extend", "fetch_add", "fetch_and",
    "fetch_max", "fetch_min", "fetch_nand", "fetch_or", "fetch_sub", "fetch_update",
    "fetch_xor", "filter", "find", "flush", "fmt", "fold", "from", "get", "get_mut",
    "get_or_insert", "hash", "insert", "into", "into_iter", "is_empty", "is_none", "is_some",
    "iter", "iter_mut", "join", "last", "len", "load", "lock", "map", "max", "min", "new",
    "next", "ok", "or_else", "parse", "poll", "pop", "position", "push", "read", "recv",
    "remove", "reserve", "resize", "retain", "rev", "send", "sort", "spawn", "split", "start",
    "store", "sum", "swap", "take", "then", "trim", "truncate", "unwrap", "wait", "write",
    "zip",
];

/// Keywords: never a callable, never part of a receiver chain.
const KEYWORDS: &[&str] = &[
    "as", "async", "await", "box", "break", "const", "continue", "crate", "dyn", "else", "enum",
    "extern", "false", "fn", "for", "if", "impl", "in", "let", "loop", "match", "mod", "move",
    "mut", "pub", "ref", "return", "self", "Self", "static", "struct", "super", "trait", "true",
    "type", "union", "unsafe", "use", "where", "while", "yield",
];

/// Is `s` a Rust keyword?
fn is_keyword(s: &str) -> bool {
    KEYWORDS.contains(&s)
}

/// Path heads that never name a workspace crate.
const EXTERNAL_ROOTS: &[&str] = &["std", "core", "alloc", "libc", "parking_lot"];

impl CallGraph {
    /// Nodes whose crate and qualified name match.
    pub fn lookup(&self, krate: &str, name: &str) -> &[NodeId] {
        self.by_qual
            .get(&(krate.to_string(), name.to_string()))
            .map(|v| v.as_slice())
            .unwrap_or(&[])
    }

    /// Build the graph over every non-test function in `files`.
    pub fn build(files: &[SourceFile], manifest: &Manifest) -> CallGraph {
        // Pass 1: nodes and name indices.
        let mut nodes: Vec<Node> = Vec::new();
        let mut by_qual: BTreeMap<(String, String), Vec<NodeId>> = BTreeMap::new();
        // short method name → nodes (methods only).
        let mut by_method: BTreeMap<String, Vec<NodeId>> = BTreeMap::new();
        // (crate, short) → nodes.
        let mut by_short_crate: BTreeMap<(String, String), Vec<NodeId>> = BTreeMap::new();
        // qualified name → nodes (any crate).
        let mut by_name: BTreeMap<String, Vec<NodeId>> = BTreeMap::new();
        for (fi, sf) in files.iter().enumerate() {
            for (ni, f) in sf.fns.iter().enumerate() {
                if f.in_test {
                    continue;
                }
                let id = nodes.len();
                nodes.push(Node {
                    file: fi,
                    fn_idx: ni,
                    krate: sf.crate_name.clone(),
                    name: f.name.clone(),
                    short: f.short.clone(),
                    display: format!("dcs-{}::{}", sf.crate_name, f.name),
                    line: f.line,
                    calls: Vec::new(),
                    locks: Vec::new(),
                    intrinsics: Vec::new(),
                });
                by_qual
                    .entry((sf.crate_name.clone(), f.name.clone()))
                    .or_default()
                    .push(id);
                if f.name != f.short {
                    by_method.entry(f.short.clone()).or_default().push(id);
                }
                by_short_crate
                    .entry((sf.crate_name.clone(), f.short.clone()))
                    .or_default()
                    .push(id);
                by_name.entry(f.name.clone()).or_default().push(id);
            }
        }
        let idx = Indices {
            by_qual: &by_qual,
            by_method: &by_method,
            by_short_crate: &by_short_crate,
            by_name: &by_name,
        };

        // Pass 2: walk each body once — locks, calls, intrinsics.
        for id in 0..nodes.len() {
            let sf = &files[nodes[id].file];
            let f = &sf.fns[nodes[id].fn_idx];
            let walked = walk_body(sf, f, manifest, &idx, nodes[id].name.as_str());
            nodes[id].locks = walked.locks;
            nodes[id].calls = walked.calls;
            nodes[id].intrinsics = walked.intrinsics;
        }

        // Manifest-declared blocking functions: seed a node-level
        // intrinsic so the contract shows up even when the body doesn't.
        for r in &manifest.declared_blocking {
            if let Some(ids) = by_qual.get(&(r.krate.clone(), r.func.clone())) {
                for &id in ids {
                    let line = nodes[id].line;
                    nodes[id].intrinsics.push(EffectSite {
                        effect: Effect::BlocksOnIo,
                        line,
                        what: format!("declared-blocking `{}` (manifest [effects])", r.func),
                        detail: "declared-blocking".into(),
                    });
                }
            }
        }

        let (sccs, scc_of) = tarjan(&nodes);
        CallGraph {
            nodes,
            sccs,
            scc_of,
            by_qual,
        }
    }
}

/// The name indices the resolver consults.
struct Indices<'a> {
    by_qual: &'a BTreeMap<(String, String), Vec<NodeId>>,
    by_method: &'a BTreeMap<String, Vec<NodeId>>,
    by_short_crate: &'a BTreeMap<(String, String), Vec<NodeId>>,
    by_name: &'a BTreeMap<String, Vec<NodeId>>,
}

impl Indices<'_> {
    fn qual(&self, krate: &str, name: &str) -> &[NodeId] {
        self.by_qual
            .get(&(krate.to_string(), name.to_string()))
            .map(|v| v.as_slice())
            .unwrap_or(&[])
    }
}

struct Walked {
    locks: Vec<LockSite>,
    calls: Vec<CallSite>,
    intrinsics: Vec<EffectSite>,
}

/// A live guard in some block frame (lock-order guard model).
#[derive(Debug, Clone)]
struct Held {
    label: String,
    /// Binding name when `let`-bound (for `drop(g)` release).
    binding: Option<String>,
    /// When true, release at the next `;` at this depth.
    stmt_scoped: bool,
}

const PANIC_MACROS: &[&str] = &["panic", "unreachable", "todo", "unimplemented"];

/// Walk one function body: guard frames, lock sites, resolved calls,
/// intrinsic effects. One pass, token order.
fn walk_body(
    sf: &SourceFile,
    f: &FnItem,
    manifest: &Manifest,
    idx: &Indices<'_>,
    fn_name: &str,
) -> Walked {
    let toks = &sf.tokens;
    let krate = sf.crate_name.as_str();
    let mut out = Walked {
        locks: Vec::new(),
        calls: Vec::new(),
        intrinsics: Vec::new(),
    };
    let mut frames: Vec<Vec<Held>> = vec![Vec::new()];
    let held_labels = |frames: &[Vec<Held>]| -> Vec<String> {
        frames.iter().flatten().map(|h| h.label.clone()).collect()
    };
    let mut i = f.body.0 + 1;
    while i < f.body.1 {
        let t = &toks[i];
        if t.is_comment() || sf.in_attr(i) {
            i += 1;
            continue;
        }
        if t.is_punct('{') {
            frames.push(Vec::new());
            i += 1;
            continue;
        }
        if t.is_punct('}') {
            frames.pop();
            if frames.is_empty() {
                break;
            }
            // The statement a nested block belongs to (`for … { }`,
            // `if … { }`) ends at its closing brace: release the
            // enclosing frame's statement-scoped temporaries.
            if let Some(top) = frames.last_mut() {
                top.retain(|h| !h.stmt_scoped);
            }
            i += 1;
            continue;
        }
        if t.is_punct(';') {
            if let Some(top) = frames.last_mut() {
                top.retain(|h| !h.stmt_scoped);
            }
            i += 1;
            continue;
        }
        if t.ident() == Some("drop") {
            // `drop(g)` releases a named guard anywhere on the stack.
            if let Some((name, end)) = single_ident_arg(sf, i) {
                for frame in frames.iter_mut() {
                    frame.retain(|h| h.binding.as_deref() != Some(name.as_str()));
                }
                i = end;
                continue;
            }
        }
        let line = t.line;
        let waived = |effect: Effect| site_waived(sf, line, sf.stmt_first_line(i), effect.waiver());
        if let Some(id) = t.ident() {
            let next_is = |c: char| sf.next_code(i + 1).is_some_and(|n| toks[n].is_punct(c));
            // Macros first: never calls, sometimes intrinsics.
            if next_is('!') {
                if PANIC_MACROS.contains(&id) && !waived(Effect::MayPanic) {
                    out.intrinsics.push(EffectSite {
                        effect: Effect::MayPanic,
                        line,
                        what: format!("`{id}!`"),
                        detail: format!("{id}!"),
                    });
                }
                i += 1;
                continue;
            }
            // Lock acquisition (zero-arg .lock/.read/.write) — modelled
            // as a lock site, never as a call edge.
            if is_acquire_at(sf, i) {
                let recv = receiver_text(sf, i);
                if !recv.is_empty() && !waived_lock(sf, line, sf.stmt_first_line(i)) {
                    let label = format!("{krate}:{recv}");
                    let held = held_labels(&frames);
                    let recursive = held.contains(&label);
                    out.locks.push(LockSite {
                        line,
                        label: label.clone(),
                        method: id.to_string(),
                        held,
                        recursive,
                    });
                    // Guard lifetime: `let`-bound guards live to end of
                    // block, inline temporaries to end of statement,
                    // `let _` drops immediately.
                    let (binding, immediate_drop) = if acquisition_ends_statement(sf, i) {
                        let_binding_for(sf, i)
                    } else {
                        (None, false)
                    };
                    if !immediate_drop {
                        if let Some(top) = frames.last_mut() {
                            top.push(Held {
                                label,
                                stmt_scoped: binding.is_none(),
                                binding,
                            });
                        }
                    }
                }
                i += 1;
                continue;
            }
            // Intrinsic effect sites.
            let prev_dot = sf.prev_code(i).is_some_and(|p| toks[p].is_punct('.'));
            if prev_dot && next_is('(') {
                let zero = zero_arg_call(sf, i);
                let intrinsic = match id {
                    "unwrap" | "expect" | "unwrap_unchecked" => {
                        Some((Effect::MayPanic, format!("`.{id}()`")))
                    }
                    "join" if zero => {
                        Some((Effect::BlocksOnIo, "`.join()` (blocks on thread)".into()))
                    }
                    "recv" if zero => {
                        Some((Effect::BlocksOnIo, "`.recv()` (blocking receive)".into()))
                    }
                    "recv_timeout" | "wait" | "wait_timeout" | "wait_while" => Some((
                        Effect::BlocksOnIo,
                        format!("`.{id}(…)` (blocks the thread)"),
                    )),
                    _ => None,
                };
                if let Some((e, what)) = intrinsic {
                    if !waived(e) {
                        out.intrinsics.push(EffectSite {
                            effect: e,
                            line,
                            what,
                            detail: format!(".{id}()"),
                        });
                    }
                }
            }
            // Thread blocking intrinsics (any call shape).
            if matches!(id, "sleep" | "park" | "park_timeout")
                && next_is('(')
                && !waived(Effect::BlocksOnIo)
            {
                out.intrinsics.push(EffectSite {
                    effect: Effect::BlocksOnIo,
                    line,
                    what: format!("`{id}(…)` (blocks the thread)"),
                    detail: format!("{id}()"),
                });
            }
            // Call edges.
            if next_is('(') && !is_keyword(id) {
                let prev = sf.prev_code(i);
                let prev_is_fn = prev.is_some_and(|p| toks[p].ident() == Some("fn"));
                if !prev_is_fn {
                    let resolved = if prev_dot {
                        resolve_method(idx, manifest, id)
                    } else if prev.is_some_and(|p| toks[p].is_punct(':')) {
                        let segs = path_segments(sf, i);
                        resolve_path(idx, krate, fn_name, &segs)
                    } else if id
                        .chars()
                        .next()
                        .is_some_and(|c| c.is_ascii_lowercase() || c == '_')
                    {
                        resolve_bare(idx, krate, id)
                    } else {
                        Vec::new() // uppercase bare call: constructor/variant
                    };
                    if !resolved.is_empty() {
                        let display = if prev_dot {
                            format!(".{id}")
                        } else {
                            id.to_string()
                        };
                        out.calls.push(CallSite {
                            line,
                            display,
                            targets: resolved,
                            held: held_labels(&frames),
                        });
                    }
                }
            }
        }
        i += 1;
    }
    out
}

/// `LINT: allow(effect-lock): reason` at an acquisition site makes the
/// acquisition invisible to the interprocedural analysis.
fn waived_lock(sf: &SourceFile, line: u32, stmt_first: u32) -> bool {
    site_waived(sf, line, stmt_first, "effect-lock")
}

/// Resolve a `.name(…)` method call.
fn resolve_method(idx: &Indices<'_>, manifest: &Manifest, name: &str) -> Vec<NodeId> {
    if let Some(targets) = manifest.dispatch.get(name) {
        return targets
            .iter()
            .flat_map(|hp| idx.qual(&hp.krate, &hp.func).iter().copied())
            .collect();
    }
    if STD_SHADOW.contains(&name) {
        return Vec::new();
    }
    match idx.by_method.get(name) {
        Some(ids) if ids.len() == 1 => ids.clone(),
        _ => Vec::new(),
    }
}

/// Resolve a bare `name(…)` call: same-crate unique, then workspace
/// unique.
fn resolve_bare(idx: &Indices<'_>, krate: &str, name: &str) -> Vec<NodeId> {
    let local = idx.qual(krate, name);
    match local.len() {
        1 => return local.to_vec(),
        0 => {}
        _ => return Vec::new(), // ambiguous in-crate: refuse to guess
    }
    if STD_SHADOW.contains(&name) {
        return Vec::new();
    }
    match idx.by_name.get(name) {
        Some(ids) if ids.len() == 1 => ids.clone(),
        _ => Vec::new(),
    }
}

/// Resolve a path call `a::b::name(…)` from its segment list.
fn resolve_path(idx: &Indices<'_>, cur_krate: &str, cur_fn: &str, segs: &[String]) -> Vec<NodeId> {
    if segs.len() < 2 {
        return Vec::new();
    }
    let first = segs[0].as_str();
    if EXTERNAL_ROOTS.contains(&first) {
        return Vec::new();
    }
    if first == "Self" {
        // `Self::m(…)` — the enclosing impl type's method.
        if let Some((ty, _)) = cur_fn.split_once("::") {
            let name = format!("{ty}::{}", segs[segs.len() - 1]);
            return unique(idx.qual(cur_krate, &name));
        }
        return Vec::new();
    }
    // Determine the crate and the in-crate path remainder.
    let (krate, rest, cross_crate): (String, &[String], bool) =
        if first == "crate" || first == "self" || first == "super" {
            (cur_krate.to_string(), &segs[1..], false)
        } else if let Some(k) = first.strip_prefix("dcs_") {
            (k.replace('_', "-"), &segs[1..], true)
        } else {
            (cur_krate.to_string(), segs, false)
        };
    if rest.is_empty() {
        return Vec::new();
    }
    let last = rest[rest.len() - 1].as_str();
    if is_type_name(last) {
        return Vec::new(); // `Mod::Type(…)` tuple-struct/variant construction
    }
    // `…::Type::method(…)` — qualified method.
    if rest.len() >= 2 && is_type_name(rest[rest.len() - 2].as_str()) {
        let qual = format!("{}::{last}", rest[rest.len() - 2]);
        let found = idx.qual(&krate, &qual);
        if !found.is_empty() {
            return unique(found);
        }
        // Unknown type in the caller's crate: a type imported from
        // elsewhere. Fall back to the unique workspace definition.
        if !cross_crate {
            if let Some(ids) = idx.by_name.get(&qual) {
                return unique(ids);
            }
        }
        return Vec::new();
    }
    // `…::module::function(…)` or `dcs_x::function(…)` — free function.
    let found = idx.qual(&krate, last);
    if !found.is_empty() {
        return unique(found);
    }
    // Module-qualified method-style helper: fall back to a unique short
    // name within the crate.
    match idx.by_short_crate.get(&(krate, last.to_string())) {
        Some(ids) => unique(ids),
        None => Vec::new(),
    }
}

fn unique(ids: &[NodeId]) -> Vec<NodeId> {
    if ids.len() == 1 {
        ids.to_vec()
    } else {
        Vec::new()
    }
}

fn is_type_name(s: &str) -> bool {
    s.chars().next().is_some_and(|c| c.is_ascii_uppercase())
}

/// Path segments ending at the ident token `i`: for
/// `std :: thread :: sleep` at `sleep`, returns
/// `["std", "thread", "sleep"]`.
fn path_segments(sf: &SourceFile, i: usize) -> Vec<String> {
    let toks = &sf.tokens;
    let mut segs = vec![toks[i].ident().unwrap_or_default().to_string()];
    let mut j = i;
    while let Some(c2) = sf.prev_code(j) {
        if !toks[c2].is_punct(':') {
            break;
        }
        let Some(c1) = sf.prev_code(c2) else { break };
        if !toks[c1].is_punct(':') {
            break;
        }
        let Some(p) = sf.prev_code(c1) else { break };
        // Skip turbofish/generic closers conservatively: stop the path.
        let Some(id) = toks[p].ident() else { break };
        segs.push(id.to_string());
        j = p;
    }
    segs.reverse();
    segs
}

/// Is token `i` the method name of a zero-argument `.lock()`, `.read()`
/// or `.write()` call?
fn is_acquire_at(sf: &SourceFile, i: usize) -> bool {
    let toks = &sf.tokens;
    let Some(name) = toks[i].ident() else {
        return false;
    };
    if !matches!(name, "lock" | "read" | "write") {
        return false;
    }
    let Some(prev) = sf.prev_code(i) else {
        return false;
    };
    if !toks[prev].is_punct('.') {
        return false;
    }
    let Some(open) = sf.next_code(i + 1) else {
        return false;
    };
    if !toks[open].is_punct('(') {
        return false;
    }
    let Some(close) = sf.next_code(open + 1) else {
        return false;
    };
    toks[close].is_punct(')')
}

/// The receiver chain to the left of the `.` before token `i`,
/// normalized to text: `self.inner.lock()` → `self.inner`;
/// `ledger().x.lock()` → `ledger().x`.
pub(crate) fn receiver_text(sf: &SourceFile, method_tok: usize) -> String {
    let toks = &sf.tokens;
    let Some(dot) = sf.prev_code(method_tok) else {
        return String::new();
    };
    let mut parts: Vec<String> = Vec::new();
    let mut j = dot; // at the `.`
    while let Some(p) = sf.prev_code(j) {
        let t = &toks[p];
        match &t.tok {
            Tok::Ident(s) => {
                if is_keyword(s) && s != "self" && s != "Self" {
                    break;
                }
                parts.push(s.clone());
                j = p;
            }
            Tok::Punct('.') | Tok::Punct(':') => {
                parts.push(if t.is_punct('.') { "." } else { ":" }.to_string());
                j = p;
            }
            Tok::Punct(')') => {
                // Balanced-paren hop: `ledger()` or `f(x)` receivers.
                let mut depth = 0usize;
                let mut k = p;
                loop {
                    if toks[k].is_punct(')') {
                        depth += 1;
                    } else if toks[k].is_punct('(') {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    let Some(prev) = sf.prev_code(k) else { break };
                    k = prev;
                }
                parts.push("()".to_string());
                j = k;
            }
            _ => break,
        }
    }
    parts.reverse();
    parts.concat()
}

/// Does the acquisition at token `i` end its statement? The guard chain
/// may pass through `.unwrap()` / `.expect(…)` (the `std::sync` shapes)
/// and must then hit `;` — any other continuation means the guard is a
/// temporary inside a larger expression.
fn acquisition_ends_statement(sf: &SourceFile, i: usize) -> bool {
    let toks = &sf.tokens;
    // Token after the acquisition's `()`.
    let Some(open) = sf.next_code(i + 1) else {
        return false;
    };
    let Some(mut k) = sf.next_code(open + 1) else {
        return false;
    }; // at the `)` (zero-arg call, checked by is_acquire_at)
    loop {
        let Some(next) = sf.next_code(k + 1) else {
            return false;
        };
        if toks[next].is_punct(';') {
            return true;
        }
        if !toks[next].is_punct('.') {
            return false;
        }
        let Some(m) = sf.next_code(next + 1) else {
            return false;
        };
        if !matches!(toks[m].ident(), Some("unwrap") | Some("expect")) {
            return false;
        }
        // Hop the adapter's balanced argument list.
        let Some(o) = sf.next_code(m + 1) else {
            return false;
        };
        if !toks[o].is_punct('(') {
            return false;
        }
        let mut depth = 0usize;
        let mut j = o;
        loop {
            if toks[j].is_punct('(') {
                depth += 1;
            } else if toks[j].is_punct(')') {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            j += 1;
            if j >= toks.len() {
                return false;
            }
        }
        k = j;
    }
}

/// Is the statement this acquisition belongs to a `let` binding? Returns
/// `(binding_name, immediate_drop)`; `let _ = …` is an immediate drop.
fn let_binding_for(sf: &SourceFile, i: usize) -> (Option<String>, bool) {
    let toks = &sf.tokens;
    // Walk back to the statement start.
    let mut start = i;
    for j in (0..i).rev() {
        let t = &toks[j];
        if t.is_comment() {
            continue;
        }
        if t.is_punct(';') || t.is_punct('{') || t.is_punct('}') {
            break;
        }
        start = j;
    }
    if toks[start].ident() != Some("let") {
        return (None, false);
    }
    // `let [mut] name [: ty] = …` — find the first ident after `let`
    // (skipping `mut`); `_` lexes as an identifier.
    let mut j = start + 1;
    while j < i {
        if let Some(id) = toks[j].ident() {
            if id == "mut" {
                j += 1;
                continue;
            }
            if id == "_" {
                return (None, true);
            }
            // A pattern binding (`let Some(g) = …`, `let res::Ok(g) = …`)
            // destructures the value; the guard itself is a temporary.
            // (`let g: Ty = …` — a single `:` — is still a binding.)
            if let Some(n) = sf.next_code(j + 1) {
                let paren = toks[n].is_punct('(');
                let path = toks[n].is_punct(':')
                    && sf.next_code(n + 1).is_some_and(|n2| toks[n2].is_punct(':'));
                if paren || path {
                    return (None, false);
                }
            }
            return (Some(id.to_string()), false);
        }
        if toks[j].is_comment() {
            j += 1;
            continue;
        }
        break;
    }
    (None, false)
}

/// `drop ( ident )` → the ident and the index of the `)`.
fn single_ident_arg(sf: &SourceFile, drop_tok: usize) -> Option<(String, usize)> {
    let toks = &sf.tokens;
    let open = sf.next_code(drop_tok + 1)?;
    if !toks[open].is_punct('(') {
        return None;
    }
    let arg = sf.next_code(open + 1)?;
    let name = toks[arg].ident()?.to_string();
    let close = sf.next_code(arg + 1)?;
    if !toks[close].is_punct(')') {
        return None;
    }
    Some((name, close))
}

/// The call at token `i` has an empty argument list.
fn zero_arg_call(sf: &SourceFile, i: usize) -> bool {
    let toks = &sf.tokens;
    let Some(open) = sf.next_code(i + 1) else {
        return false;
    };
    if !toks[open].is_punct('(') {
        return false;
    }
    sf.next_code(open + 1)
        .is_some_and(|close| toks[close].is_punct(')'))
}

/// Iterative Tarjan SCC. Emits components callee-first (a component is
/// finished only after everything reachable from it), which is exactly
/// the bottom-up summary order.
fn tarjan(nodes: &[Node]) -> (Vec<Vec<NodeId>>, Vec<usize>) {
    let n = nodes.len();
    let edges: Vec<Vec<NodeId>> = nodes
        .iter()
        .map(|node| {
            node.calls
                .iter()
                .flat_map(|c| c.targets.iter().copied())
                .collect()
        })
        .collect();
    let mut index = vec![usize::MAX; n];
    let mut low = vec![0usize; n];
    let mut on_stack = vec![false; n];
    let mut stack: Vec<NodeId> = Vec::new();
    let mut sccs: Vec<Vec<NodeId>> = Vec::new();
    let mut scc_of = vec![usize::MAX; n];
    let mut counter = 0usize;

    for root in 0..n {
        if index[root] != usize::MAX {
            continue;
        }
        // Explicit DFS: (node, next edge position).
        let mut work: Vec<(NodeId, usize)> = vec![(root, 0)];
        index[root] = counter;
        low[root] = counter;
        counter += 1;
        stack.push(root);
        on_stack[root] = true;
        while let Some(&mut (v, ref mut ei)) = work.last_mut() {
            if *ei < edges[v].len() {
                let w = edges[v][*ei];
                *ei += 1;
                if index[w] == usize::MAX {
                    index[w] = counter;
                    low[w] = counter;
                    counter += 1;
                    stack.push(w);
                    on_stack[w] = true;
                    work.push((w, 0));
                } else if on_stack[w] {
                    low[v] = low[v].min(index[w]);
                }
            } else {
                work.pop();
                if let Some(&mut (parent, _)) = work.last_mut() {
                    low[parent] = low[parent].min(low[v]);
                }
                if low[v] == index[v] {
                    let mut comp = Vec::new();
                    loop {
                        let w = stack.pop().expect("tarjan stack underflow");
                        on_stack[w] = false;
                        scc_of[w] = sccs.len();
                        comp.push(w);
                        if w == v {
                            break;
                        }
                    }
                    comp.sort_unstable();
                    sccs.push(comp);
                }
            }
        }
    }
    (sccs, scc_of)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn node<'g>(g: &'g CallGraph, display: &str) -> (&'g Node, NodeId) {
        let id = g
            .nodes
            .iter()
            .position(|n| n.display == display)
            .unwrap_or_else(|| panic!("no node `{display}`"));
        (&g.nodes[id], id)
    }

    fn targets(g: &CallGraph, from: &str) -> Vec<String> {
        let (n, _) = node(g, from);
        n.calls
            .iter()
            .flat_map(|c| c.targets.iter())
            .map(|&t| g.nodes[t].display.clone())
            .collect()
    }

    #[test]
    fn bare_call_resolves_same_crate() {
        let files = [SourceFile::fixture(
            "x",
            "a.rs",
            "fn top() { helper(); }\nfn helper() {}",
        )];
        let g = CallGraph::build(&files, &Manifest::default());
        assert_eq!(targets(&g, "dcs-x::top"), vec!["dcs-x::helper"]);
    }

    #[test]
    fn ambiguous_bare_call_gets_no_edge() {
        let files = [SourceFile::fixture(
            "x",
            "a.rs",
            "fn top() { go(); }\nfn go() {}\nmod other { pub fn go() {} }",
        )];
        let g = CallGraph::build(&files, &Manifest::default());
        assert!(targets(&g, "dcs-x::top").is_empty());
    }

    #[test]
    fn cross_crate_path_call_resolves() {
        let files = [
            SourceFile::fixture("a", "a.rs", "pub fn caller() { dcs_b::helper(); }"),
            SourceFile::fixture("b", "b.rs", "pub fn helper() {}"),
        ];
        let g = CallGraph::build(&files, &Manifest::default());
        assert_eq!(targets(&g, "dcs-a::caller"), vec!["dcs-b::helper"]);
    }

    #[test]
    fn cross_crate_method_path_resolves() {
        let files = [
            SourceFile::fixture("a", "a.rs", "pub fn caller(x: &X) { dcs_b::Dev::go(x); }"),
            SourceFile::fixture(
                "b",
                "b.rs",
                "pub struct Dev;\nimpl Dev { pub fn go(&self) {} }",
            ),
        ];
        let g = CallGraph::build(&files, &Manifest::default());
        assert_eq!(targets(&g, "dcs-a::caller"), vec!["dcs-b::Dev::go"]);
    }

    #[test]
    fn unique_method_call_resolves() {
        let files = [
            SourceFile::fixture("a", "a.rs", "pub fn caller(d: &Dev) { d.wall_wait(); }"),
            SourceFile::fixture(
                "b",
                "b.rs",
                "pub struct Dev;\nimpl Dev { pub fn wall_wait(&self) {} }",
            ),
        ];
        let g = CallGraph::build(&files, &Manifest::default());
        assert_eq!(targets(&g, "dcs-a::caller"), vec!["dcs-b::Dev::wall_wait"]);
    }

    #[test]
    fn std_shadow_method_gets_no_edge() {
        // `.push(…)` must not resolve even when a workspace `push`
        // method is globally unique.
        let files = [
            SourceFile::fixture("a", "a.rs", "pub fn caller(v: &mut Q) { v.push(1); }"),
            SourceFile::fixture(
                "b",
                "b.rs",
                "pub struct Q;\nimpl Q { pub fn push(&mut self, x: u32) { grow(); } }\nfn grow() {}",
            ),
        ];
        let g = CallGraph::build(&files, &Manifest::default());
        assert!(targets(&g, "dcs-a::caller").is_empty());
    }

    #[test]
    fn dispatch_table_overrides_and_unions() {
        let files = [
            SourceFile::fixture("a", "a.rs", "pub fn caller(b: &dyn Kv) { b.kv_get(1); }"),
            SourceFile::fixture(
                "b",
                "b.rs",
                "pub struct S1;\nimpl Kv for S1 { fn kv_get(&self, k: u64) {} }\n\
                 pub struct S2;\nimpl Kv for S2 { fn kv_get(&self, k: u64) {} }",
            ),
        ];
        let m =
            Manifest::parse("[dispatch]\nkv_get = [\"dcs-b::S1::kv_get\", \"dcs-b::S2::kv_get\"]")
                .unwrap();
        let g = CallGraph::build(&files, &m);
        assert_eq!(
            targets(&g, "dcs-a::caller"),
            vec!["dcs-b::S1::kv_get", "dcs-b::S2::kv_get"]
        );
    }

    #[test]
    fn self_path_resolves_to_impl_method() {
        let files = [SourceFile::fixture(
            "x",
            "a.rs",
            "struct S;\nimpl S { fn a(&self) { Self::b(); } fn b() {} }",
        )];
        let g = CallGraph::build(&files, &Manifest::default());
        assert_eq!(targets(&g, "dcs-x::S::a"), vec!["dcs-x::S::b"]);
    }

    #[test]
    fn crate_path_stays_in_crate() {
        let files = [
            SourceFile::fixture(
                "a",
                "a.rs",
                "pub fn caller() { crate::helper(); }\npub fn helper() {}",
            ),
            SourceFile::fixture("b", "b.rs", "pub fn helper() {}"),
        ];
        let g = CallGraph::build(&files, &Manifest::default());
        assert_eq!(targets(&g, "dcs-a::caller"), vec!["dcs-a::helper"]);
    }

    #[test]
    fn test_functions_are_not_nodes() {
        let files = [SourceFile::fixture(
            "x",
            "a.rs",
            "fn live() {}\n#[cfg(test)]\nmod tests { fn helper() {} }",
        )];
        let g = CallGraph::build(&files, &Manifest::default());
        assert_eq!(g.nodes.len(), 1);
        assert_eq!(g.nodes[0].name, "live");
    }

    #[test]
    fn call_sites_record_held_locks() {
        let files = [SourceFile::fixture(
            "x",
            "a.rs",
            "fn f(s: &S) { let g = s.table.lock(); step(); }\nfn step() {}",
        )];
        let g = CallGraph::build(&files, &Manifest::default());
        let (n, _) = node(&g, "dcs-x::f");
        assert_eq!(n.calls.len(), 1);
        assert_eq!(n.calls[0].held, vec!["x:s.table"]);
    }

    #[test]
    fn scc_order_is_callee_first() {
        let files = [SourceFile::fixture(
            "x",
            "a.rs",
            "fn top() { leaf(); }\nfn leaf() {}",
        )];
        let g = CallGraph::build(&files, &Manifest::default());
        let (_, top) = node(&g, "dcs-x::top");
        let (_, leaf) = node(&g, "dcs-x::leaf");
        assert!(g.scc_of[leaf] < g.scc_of[top]);
    }

    #[test]
    fn crlf_files_keep_line_numbers() {
        // Lexer regression: CRLF line endings must not shift the line
        // accounting the whole engine anchors reports on.
        let src = "fn top() {\r\n    helper();\r\n}\r\nfn helper() {\r\n    let b = X.get().unwrap();\r\n}\r\n";
        let files = [SourceFile::fixture("x", "a.rs", src)];
        let g = CallGraph::build(&files, &Manifest::default());
        let (top, _) = node(&g, "dcs-x::top");
        assert_eq!(top.calls.len(), 1);
        assert_eq!(top.calls[0].line, 2);
        let (helper, _) = node(&g, "dcs-x::helper");
        assert_eq!(helper.intrinsics.len(), 1);
        assert_eq!(helper.intrinsics[0].line, 5);
    }
}
