//! Parsed source model: files, functions, test regions, comment maps.
//!
//! On top of the raw token stream this module runs a *lightweight*
//! item/scope parser — enough structure for the lints without a real
//! grammar. It classifies every brace pair as a function body, an
//! `impl`/`mod` block, or "other" (match arms, struct literals, plain
//! blocks), qualifies method names by their `impl` type, and marks
//! functions under `#[cfg(test)]` / `#[test]` so the call graph skips
//! test code. Ambiguity degrades to the "other" class, which only ever
//! makes the analysis more conservative.

use crate::lexer::{lex, Token};
use std::path::{Path, PathBuf};

/// A function item (free function, method, or trait default method).
#[derive(Debug, Clone)]
pub struct FnItem {
    /// Qualified name: `Type::method` for methods, bare name otherwise.
    pub name: String,
    /// The unqualified name.
    pub short: String,
    /// Token index range of the body, inclusive of both braces.
    pub body: (usize, usize),
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// True when the function is test-only (`#[test]`, or lexically
    /// inside a `#[cfg(test)]` module).
    pub in_test: bool,
}

/// One analyzed source file.
pub struct SourceFile {
    /// Absolute path on disk.
    pub path: PathBuf,
    /// Workspace-relative path with forward slashes (stable across
    /// machines: the report key).
    pub rel: String,
    /// Owning crate's directory name under `crates/`.
    pub crate_name: String,
    /// The token stream, comments included.
    pub tokens: Vec<Token>,
    /// Functions found, in source order.
    pub fns: Vec<FnItem>,
    /// Sorted token-index ranges lying inside `#[…]` attributes.
    attr_ranges: Vec<(usize, usize)>,
    /// Raw line text, for waiver lookups.
    lines: Vec<String>,
}

impl SourceFile {
    /// Read and parse one file. `root` anchors the workspace-relative
    /// path; `crate_name` is the `crates/<name>` directory.
    pub fn load(root: &Path, path: &Path, crate_name: &str) -> std::io::Result<SourceFile> {
        let text = std::fs::read_to_string(path)?;
        let rel = path
            .strip_prefix(root)
            .unwrap_or(path)
            .to_string_lossy()
            .replace('\\', "/");
        Ok(Self::from_text(path.to_path_buf(), rel, crate_name, &text))
    }

    /// A file at `crates/<krate>/src/<name>` parsed from `text` — the
    /// shape every fixture and unit test builds.
    pub fn fixture(krate: &str, name: &str, text: &str) -> SourceFile {
        let rel = format!("crates/{krate}/src/{name}");
        Self::from_text(PathBuf::from(name), rel, krate, text)
    }

    /// Parse from in-memory text.
    pub fn from_text(path: PathBuf, rel: String, crate_name: &str, text: &str) -> SourceFile {
        let tokens = lex(text);
        let mut sf = SourceFile {
            path,
            rel,
            crate_name: crate_name.to_string(),
            tokens,
            fns: Vec::new(),
            attr_ranges: Vec::new(),
            lines: text.lines().map(|l| l.to_string()).collect(),
        };
        sf.parse_items();
        sf
    }

    /// True when token `i` sits inside an attribute (`#[…]`).
    pub fn in_attr(&self, i: usize) -> bool {
        self.attr_ranges.iter().any(|&(a, b)| a <= i && i <= b)
    }

    /// The raw text of line `line` (1-based), if it exists.
    pub fn line_text(&self, line: u32) -> &str {
        self.lines
            .get(line as usize - 1)
            .map(|s| s.as_str())
            .unwrap_or("")
    }

    /// First line of the statement containing token `i`: the line of the
    /// first code token after the previous `;`, `{` or `}` at any depth.
    pub fn stmt_first_line(&self, i: usize) -> u32 {
        let mut start = i;
        for j in (0..i).rev() {
            let t = &self.tokens[j];
            if t.is_comment() {
                continue;
            }
            if t.is_punct(';') || t.is_punct('{') || t.is_punct('}') {
                break;
            }
            start = j;
        }
        self.tokens[start].line
    }

    /// Next code (non-comment) token at or after `i`.
    pub fn next_code(&self, mut i: usize) -> Option<usize> {
        while i < self.tokens.len() {
            if !self.tokens[i].is_comment() {
                return Some(i);
            }
            i += 1;
        }
        None
    }

    /// Previous code (non-comment) token strictly before `i`.
    pub fn prev_code(&self, i: usize) -> Option<usize> {
        (0..i).rev().find(|&j| !self.tokens[j].is_comment())
    }

    /// The item/scope pass: classify braces, find functions, mark
    /// attribute ranges and test functions.
    fn parse_items(&mut self) {
        #[derive(Clone)]
        enum Ctx {
            /// `impl` block for the named type.
            Impl(String),
            /// Function body (index into `self.fns`).
            Fn(usize),
            /// Anything else.
            Other,
        }
        let toks = &self.tokens;
        let n = toks.len();
        let mut stack: Vec<Ctx> = Vec::new();
        // Tokens since the last statement/brace boundary, attrs filtered.
        let mut window: Vec<usize> = Vec::new();
        // Attributes seen since the last boundary (token ranges).
        let mut pending_attrs: Vec<(usize, usize)> = Vec::new();
        let mut fns: Vec<FnItem> = Vec::new();
        let mut attr_ranges: Vec<(usize, usize)> = Vec::new();
        // Depth at which the outermost `#[cfg(test)]`/`#[test]` item
        // opened; test code ends when the stack shrinks back past it.
        let mut test_depth: Option<usize> = None;

        let mut i = 0usize;
        while i < n {
            let t = &toks[i];
            if t.is_comment() {
                i += 1;
                continue;
            }
            // Attribute: `#` `[` … balanced `]`.
            if t.is_punct('#') {
                let open = self.next_code(i + 1);
                if let Some(o) = open {
                    if toks[o].is_punct('[') || toks[o].is_punct('!') {
                        // #[attr] or #![attr]
                        let bracket = if toks[o].is_punct('[') {
                            Some(o)
                        } else {
                            self.next_code(o + 1).filter(|&b| toks[b].is_punct('['))
                        };
                        if let Some(b) = bracket {
                            let mut depth = 0usize;
                            let mut j = b;
                            while j < n {
                                if toks[j].is_punct('[') {
                                    depth += 1;
                                } else if toks[j].is_punct(']') {
                                    depth -= 1;
                                    if depth == 0 {
                                        break;
                                    }
                                }
                                j += 1;
                            }
                            attr_ranges.push((i, j.min(n - 1)));
                            pending_attrs.push((i, j.min(n - 1)));
                            i = j + 1;
                            continue;
                        }
                    }
                }
                i += 1;
                continue;
            }
            if t.is_punct('{') {
                let ctx = classify_brace(toks, &window);
                let is_test_item = pending_attrs.iter().any(|&(a, b)| attr_is_test(toks, a, b))
                    || matches!(stack.last(), Some(Ctx::Fn(fi)) if fns[*fi].in_test);
                let already_in_test = test_depth.is_some();
                if is_test_item && !already_in_test {
                    test_depth = Some(stack.len());
                }
                match ctx {
                    BraceKind::Fn(name) => {
                        let qualified = match stack.iter().rev().find_map(|c| match c {
                            Ctx::Impl(ty) => Some(ty.clone()),
                            _ => None,
                        }) {
                            Some(ty) => format!("{ty}::{name}"),
                            None => name.clone(),
                        };
                        let line = window
                            .first()
                            .map(|&w| toks[w].line)
                            .unwrap_or(toks[i].line);
                        fns.push(FnItem {
                            name: qualified,
                            short: name,
                            body: (i, i), // end patched on close
                            line,
                            in_test: is_test_item || already_in_test,
                        });
                        stack.push(Ctx::Fn(fns.len() - 1));
                    }
                    BraceKind::Impl(ty) => stack.push(Ctx::Impl(ty)),
                    BraceKind::Mod | BraceKind::Other => stack.push(Ctx::Other),
                }
                window.clear();
                pending_attrs.clear();
            } else if t.is_punct('}') {
                if let Some(Ctx::Fn(fi)) = stack.pop() {
                    fns[fi].body.1 = i;
                }
                if test_depth.is_some_and(|d| stack.len() <= d) {
                    test_depth = None;
                }
                window.clear();
                pending_attrs.clear();
            } else if t.is_punct(';') {
                window.clear();
                pending_attrs.clear();
            } else {
                window.push(i);
            }
            i += 1;
        }
        // Unclosed scopes at EOF (shouldn't happen for valid Rust): close
        // them at the last token so ranges stay well-formed.
        for ctx in stack {
            if let Ctx::Fn(fi) = ctx {
                fns[fi].body.1 = n.saturating_sub(1);
            }
        }
        attr_ranges.sort_unstable();
        self.fns = fns;
        self.attr_ranges = attr_ranges;
    }
}

enum BraceKind {
    Fn(String),
    Impl(String),
    Mod,
    Other,
}

/// Decide what a `{` opens from the statement window preceding it.
fn classify_brace(toks: &[Token], window: &[usize]) -> BraceKind {
    // A window containing `=>` or starting mid-expression is never an
    // item header; `match x {`, `if … {`, struct literals etc. all land
    // in Other, which only affects attribution granularity.
    let idents: Vec<(usize, &str)> = window
        .iter()
        .filter_map(|&i| toks[i].ident().map(|s| (i, s)))
        .collect();
    for (pos, (_, s)) in idents.iter().enumerate() {
        match *s {
            "fn" => {
                // `fn name` — the name is the next ident token.
                if let Some((_, name)) = idents.get(pos + 1) {
                    return BraceKind::Fn((*name).to_string());
                }
                return BraceKind::Other;
            }
            // Closure bodies / expressions that happen to contain these
            // keywords never reach here with `impl`/`mod`/`trait` first.
            "impl" => return BraceKind::Impl(impl_type_name(pos, &idents)),
            "mod" => return BraceKind::Mod,
            "trait" => return BraceKind::Other,
            "match" | "if" | "while" | "for" | "loop" | "else" | "unsafe" | "move" | "async"
            | "return" | "let" | "static" | "const" | "struct" | "enum" | "union" => {
                // `unsafe fn`/`const fn`/`async fn` keep scanning for an
                // `fn` later in the window; expression keywords and data
                // items settle the matter only if no `fn` follows.
                if idents.iter().skip(pos + 1).any(|(_, s)| *s == "fn") {
                    continue;
                }
                return BraceKind::Other;
            }
            _ => continue,
        }
    }
    BraceKind::Other
}

/// The self type of an `impl` header: `impl Foo {` → Foo,
/// `impl<T> Trait for Bar<T> {` → Bar.
fn impl_type_name(impl_pos: usize, idents: &[(usize, &str)]) -> String {
    // Idents after `impl`, skipping generic parameter names is hard
    // without types; the pragmatic rule: if `for` appears, the type is
    // the first ident after `for`; otherwise the *last* path-head ident
    // before any `where` — approximated as the first ident after `impl`
    // that is not re-used as a generic (first ident works for this
    // workspace's style `impl Foo` / `impl<'a> Foo<'a>`).
    let after: Vec<&str> = idents.iter().skip(impl_pos + 1).map(|(_, s)| *s).collect();
    if let Some(fpos) = after.iter().position(|s| *s == "for") {
        if let Some(name) = after.get(fpos + 1) {
            return (*name).to_string();
        }
    }
    for s in &after {
        if *s != "where" && *s != "dyn" {
            return (*s).to_string();
        }
    }
    "impl".to_string()
}

/// Is the attribute spanning tokens `a..=b` a `#[cfg(test)]` or
/// `#[test]` (or `#[cfg(any(test, …))]`)?
fn attr_is_test(toks: &[Token], a: usize, b: usize) -> bool {
    let idents: Vec<&str> = toks[a..=b.min(toks.len() - 1)]
        .iter()
        .filter_map(|t| t.ident())
        .collect();
    match idents.first() {
        Some(&"cfg") => idents.contains(&"test"),
        Some(&"test") => idents.len() == 1,
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(src: &str) -> SourceFile {
        SourceFile::fixture("x", "mem.rs", src)
    }

    #[test]
    fn finds_free_and_method_fns() {
        let sf = parse(
            "fn alpha() { let x = 1; }\n\
             struct S;\n\
             impl S { pub fn beta(&self) -> u32 { 2 } }\n\
             impl Clone for S { fn clone(&self) -> S { S } }",
        );
        let names: Vec<&str> = sf.fns.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, vec!["alpha", "S::beta", "S::clone"]);
    }

    #[test]
    fn cfg_test_mod_is_marked() {
        let sf = parse(
            "fn live() {}\n\
             #[cfg(test)]\n\
             mod tests {\n\
                 #[test]\n\
                 fn t() { let x = 1; }\n\
             }",
        );
        let live = sf.fns.iter().find(|f| f.name == "live").unwrap();
        let t = sf.fns.iter().find(|f| f.name == "t").unwrap();
        assert!(!live.in_test);
        assert!(t.in_test);
    }

    #[test]
    fn test_attr_on_fn_is_marked() {
        let sf = parse("#[test]\nfn only_in_tests() { }\nfn real() { }");
        assert!(
            sf.fns
                .iter()
                .find(|f| f.name == "only_in_tests")
                .unwrap()
                .in_test
        );
        assert!(!sf.fns.iter().find(|f| f.name == "real").unwrap().in_test);
    }

    #[test]
    fn match_and_struct_literals_are_not_fns() {
        let sf = parse(
            "fn f(x: Option<u32>) -> P { match x { Some(_) => P { a: 1 }, None => P { a: 0 } } }",
        );
        assert_eq!(sf.fns.len(), 1);
        assert_eq!(sf.fns[0].name, "f");
    }

    #[test]
    fn attrs_are_ranged() {
        let sf = parse("#[derive(Debug)]\nstruct S { a: u32 }\nfn f() { s[0]; }");
        let derive = sf
            .tokens
            .iter()
            .position(|t| t.ident() == Some("derive"))
            .unwrap();
        assert!(sf.in_attr(derive));
        let idx = sf
            .tokens
            .iter()
            .position(|t| t.ident() == Some("s"))
            .unwrap();
        assert!(!sf.in_attr(idx));
    }

    #[test]
    fn stmt_first_line_walks_back() {
        let sf = parse("fn f() {\n    let x = foo\n        .bar(\n            1);\n}");
        let one = sf
            .tokens
            .iter()
            .position(|t| t.ident() == Some("bar"))
            .unwrap();
        assert_eq!(sf.stmt_first_line(one), 2);
    }
}
