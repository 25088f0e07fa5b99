//! The docs must not name `repro` subcommands, flags or crate items that
//! do not exist. Every `repro <name>` written as code in README.md,
//! DESIGN.md and EXPERIMENTS.md — inline code spans and fenced blocks —
//! must be a row of the registry `repro list` prints, or one of the
//! built-in modes, and every `--flag` passed to `repro` there must appear
//! in its usage text. Every `uvf_<crate>::<Item>` path written as code
//! there must name `pub` items or re-exports in `crates/<crate>/src`, and
//! every `*.rs` path written as code there must name a file under
//! `crates/` or `perfbench/`. And every `pub fn` must have a caller
//! outside tests, or a reason in [`ORACLES`] to exist without one.

use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;
use std::process::Command;

/// Names `repro` accepts besides the registry rows.
const MODES: [&str; 5] = ["list", "all", "work", "watch", "promcheck"];

/// The documents whose `repro` references are checked.
const DOCS: [&str; 3] = ["README.md", "DESIGN.md", "EXPERIMENTS.md"];

/// `repro` flags that consume the next token as their value.
const VALUE_FLAGS: [&str; 7] = [
    "--workers",
    "--out",
    "--endpoint",
    "--metrics-addr",
    "--linger-ms",
    "--await-subscribers",
    "--from",
];

/// The registry rows, parsed from `repro list` (`  ● name  description`,
/// with a blank marker for rows `all` skips).
fn registry() -> Vec<String> {
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .arg("list")
        .output()
        .expect("run repro list");
    assert!(out.status.success(), "repro list failed");
    String::from_utf8(out.stdout)
        .expect("utf-8 listing")
        .lines()
        .filter_map(|line| {
            let rest = line.strip_prefix("  ")?;
            let rest = rest.strip_prefix('●').or_else(|| rest.strip_prefix(' '))?;
            let rest = rest.strip_prefix(' ')?;
            (!rest.starts_with(' '))
                .then(|| rest.split_whitespace().next())
                .flatten()
                .map(str::to_string)
        })
        .collect()
}

/// Every `--flag` in `repro`'s usage text (printed by `repro --help`).
fn usage_flags() -> Vec<String> {
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .arg("--help")
        .output()
        .expect("run repro --help");
    String::from_utf8(out.stderr)
        .expect("utf-8 usage")
        .split(|c: char| !(c.is_ascii_alphanumeric() || c == '-'))
        .filter(|t| is_flag(t))
        .map(str::to_string)
        .collect()
}

/// The code in a Markdown document: every fenced line (a trailing `\`
/// joins the next line) and every inline code span.
fn code_fragments(doc: &str) -> Vec<String> {
    let mut fragments = Vec::new();
    let mut prose = String::new();
    let mut fenced = false;
    let mut continued = String::new();
    for line in doc.lines() {
        if line.trim_start().starts_with("```") {
            fenced = !fenced;
        } else if fenced {
            match line.strip_suffix('\\') {
                Some(head) => {
                    continued.push_str(head);
                    continued.push(' ');
                }
                None => {
                    continued.push_str(line);
                    fragments.push(std::mem::take(&mut continued));
                }
            }
        } else {
            prose.push_str(line);
            prose.push('\n');
        }
    }
    fragments.extend(prose.split('`').skip(1).step_by(2).map(str::to_string));
    fragments
}

fn is_name(token: &str) -> bool {
    token.starts_with(|c: char| c.is_ascii_lowercase())
        && token
            .chars()
            .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || "-+_".contains(c))
}

/// A `--flag`; a bare `--` only ends cargo's own arguments.
fn is_flag(token: &str) -> bool {
    token.starts_with("--") && token.len() > 2
}

/// The subcommand names and `--flags` one code fragment passes to
/// `repro`: the words after a `repro` token, skipping flag values and a
/// bare `--`, up to a comment or shell operator.
fn repro_words(code: &str) -> Vec<String> {
    let tokens: Vec<&str> = code.split_whitespace().collect();
    let mut names = Vec::new();
    for (i, _) in tokens
        .iter()
        .enumerate()
        .filter(|(_, t)| **t == "repro" || t.ends_with("/repro"))
    {
        let mut args = tokens[i + 1..].iter();
        while let Some(&token) = args.next() {
            if token.starts_with('#') || ["|", "&", "&&", ";", ">"].contains(&token) {
                break;
            }
            if VALUE_FLAGS.contains(&token) {
                args.next();
            }
            if is_name(token) || is_flag(token) {
                names.push(token.to_string());
            }
        }
    }
    names
}

#[test]
fn every_documented_repro_command_exists() {
    let registry = registry();
    assert!(
        registry.iter().any(|n| n == "fig1") && registry.iter().any(|n| n == "serve"),
        "registry parse: {registry:?}"
    );
    let flags = usage_flags();
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let mut unknown = Vec::new();
    let mut checked = 0;
    for doc in DOCS {
        let text = std::fs::read_to_string(root.join(doc)).expect("read doc");
        for word in code_fragments(&text).iter().flat_map(|c| repro_words(c)) {
            checked += 1;
            let known = if is_flag(&word) {
                flags.contains(&word)
            } else {
                registry.contains(&word) || MODES.contains(&word.as_str())
            };
            if !known {
                unknown.push(format!("{doc}: repro {word}"));
            }
        }
    }
    assert!(checked > 10, "only {checked} references found");
    assert!(
        unknown.is_empty(),
        "docs name missing commands or flags: {unknown:#?}"
    );
}

#[test]
fn references_are_found_in_spans_and_fenced_commands() {
    let doc = "Run `repro\nfig12` or `repro --quick --out repro-out fig3`.\n\
               ```sh\n\
               cargo run --bin repro -- \\\n  --check fig14 # comment fig99\n\
               ./target/release/repro watch --endpoint unix:/x | tee log\n\
               ```\n\
               the repro binary, `repro-out/`\n";
    let words: Vec<String> = code_fragments(doc)
        .iter()
        .flat_map(|c| repro_words(c))
        .collect();
    assert_eq!(
        words,
        [
            "--check",
            "fig14",
            "watch",
            "--endpoint",
            "fig12",
            "--quick",
            "--out",
            "fig3"
        ]
    );
}

/// The `uvf_<crate>::A::B` paths in one code fragment, as the crate name
/// and its segments.
fn crate_paths(code: &str) -> Vec<(String, Vec<String>)> {
    let is_ident = |c: char| c.is_ascii_alphanumeric() || c == '_';
    let mut paths = Vec::new();
    for (at, _) in code.match_indices("uvf_") {
        if code[..at].ends_with(is_ident) {
            continue;
        }
        let mut segments = code[at..]
            .split("::")
            .map(|seg| {
                let end = seg.find(|c: char| !is_ident(c)).unwrap_or(seg.len());
                (&seg[..end], end == seg.len())
            })
            .scan(true, |more, (ident, whole)| {
                let keep = *more && !ident.is_empty();
                *more = whole;
                keep.then(|| ident.to_string())
            });
        let krate = segments.next().expect("starts with uvf_");
        let rest: Vec<String> = segments.collect();
        if !rest.is_empty() {
            paths.push((krate["uvf_".len()..].to_string(), rest));
        }
    }
    paths
}

/// The identifiers in `text`.
fn idents(text: &str) -> impl Iterator<Item = &str> {
    text.split(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
        .filter(|w| !w.is_empty())
}

/// The items `text` declares `pub`, as `(kind, name)`: `("fn", "load")`,
/// `("struct", "Manifest")`, … and `("use", name)` for every identifier a
/// `pub use` lists.
fn pub_items(text: &str) -> Vec<(&str, &str)> {
    let mut items = Vec::new();
    for (at, _) in text.match_indices("pub ") {
        let rest = &text[at + "pub ".len()..];
        if let Some(list) = rest.strip_prefix("use ") {
            items.extend(idents(&list[..list.find(';').unwrap_or(list.len())]).map(|n| ("use", n)));
            continue;
        }
        let words: Vec<&str> = idents(rest).take(3).collect();
        let item = match words.as_slice() {
            ["const" | "unsafe" | "async", "fn", name, ..] => ("fn", *name),
            [kind, name, ..]
                if [
                    "fn", "struct", "enum", "trait", "type", "mod", "const", "static",
                ]
                .contains(kind) =>
            {
                (*kind, *name)
            }
            _ => continue,
        };
        items.push(item);
    }
    items
}

/// Every name the Rust sources under `dir` declare `pub` (`pub fn`,
/// `pub struct`, `pub mod`, …) or list in a `pub use`.
fn pub_names(dir: &Path, names: &mut BTreeSet<String>) {
    let mut files = Vec::new();
    rust_files(dir, dir, &mut files);
    for file in files {
        let text = std::fs::read_to_string(dir.join(file)).expect("read source");
        names.extend(
            pub_items(&text)
                .into_iter()
                .map(|(_, name)| name.to_string()),
        );
    }
}

#[test]
fn every_documented_crate_path_exists() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let mut missing = Vec::new();
    let mut checked = 0;
    for doc in DOCS {
        let text = std::fs::read_to_string(root.join(doc)).expect("read doc");
        for (krate, segments) in code_fragments(&text).iter().flat_map(|c| crate_paths(c)) {
            checked += 1;
            let src = root.join("crates").join(&krate).join("src");
            let mut names = BTreeSet::new();
            if src.is_dir() {
                pub_names(&src, &mut names);
            }
            if let Some(seg) = segments.iter().find(|seg| !names.contains(*seg)) {
                missing.push(format!(
                    "{doc}: uvf_{krate}::{} ({seg})",
                    segments.join("::")
                ));
            }
        }
    }
    assert!(checked > 5, "only {checked} crate paths found");
    assert!(
        missing.is_empty(),
        "docs name crate items that do not exist: {missing:#?}"
    );
}

#[test]
fn crate_paths_are_split_into_segments() {
    let code = "see uvf_trace::Manifest::load() and uvf_nn::Scorer, not uvf_x or my_uvf_y::Z";
    assert_eq!(
        crate_paths(code),
        [
            (
                "trace".to_string(),
                vec!["Manifest".to_string(), "load".to_string()]
            ),
            ("nn".to_string(), vec!["Scorer".to_string()]),
        ]
    );
}

/// The `*.rs` paths in one code fragment, without a leading `/` or `./`.
fn rs_paths(code: &str) -> Vec<&str> {
    code.split(|c: char| !(c.is_ascii_alphanumeric() || "_./-".contains(c)))
        .map(|token| token.trim_start_matches("./").trim_start_matches('/'))
        .filter(|path| {
            path.strip_suffix(".rs")
                .is_some_and(|stem| !stem.is_empty() && !stem.ends_with('/'))
        })
        .collect()
}

/// Every `.rs` file under `dir`, as a path relative to `root`, skipping
/// build output.
fn rust_files(dir: &Path, root: &Path, files: &mut Vec<String>) {
    for entry in std::fs::read_dir(dir).expect("read dir") {
        let path = entry.expect("dir entry").path();
        if path.is_dir() {
            if !path.ends_with("target") {
                rust_files(&path, root, files);
            }
        } else if path.extension().is_some_and(|ext| ext == "rs") {
            let relative = path.strip_prefix(root).expect("under the root");
            files.push(relative.to_string_lossy().replace('\\', "/"));
        }
    }
}

#[test]
fn every_documented_source_file_exists() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let mut files = Vec::new();
    for dir in ["crates", "perfbench"] {
        rust_files(&root.join(dir), &root, &mut files);
    }
    let mut missing = Vec::new();
    let mut checked = 0;
    for doc in DOCS {
        let text = std::fs::read_to_string(root.join(doc)).expect("read doc");
        for fragment in code_fragments(&text) {
            for path in rs_paths(&fragment) {
                checked += 1;
                let suffix = format!("/{path}");
                if !files.iter().any(|f| f == path || f.ends_with(&suffix)) {
                    missing.push(format!("{doc}: {path}"));
                }
            }
        }
    }
    assert!(checked > 20, "only {checked} source paths found");
    assert!(
        missing.is_empty(),
        "docs name source files that do not exist: {missing:#?}"
    );
}

#[test]
fn rs_paths_are_found_in_code() {
    assert_eq!(
        rs_paths("see crates/bench/tests/registry.rs::row, ./src/lib.rs and crates/*/src/**/*.rs"),
        ["crates/bench/tests/registry.rs", "src/lib.rs"]
    );
}

/// `pub fn`s that only tests call, each kept for the reason given: the
/// reference a test holds a production path against, or the handle a test
/// needs to reach it.
const ORACLES: &[(&str, &str)] = &[
    (
        "reference_decode",
        "the textbook SECDED decoder the table-driven `decode` is held against",
    ),
    (
        "for_each_failing_resolved",
        "the per-cell scan the fault masks, ladder kernel and probe counts are held against",
    ),
    (
        "total_weak_cells",
        "the die size the weak-cell digests and die-sharing tests pin",
    ),
    (
        "environment_noise_mv",
        "reads back DESIGN §6b's supply-droop knob in the die-sharing and ladder tests",
    ),
    (
        "set_environment_noise_mv",
        "DESIGN §6b's supply-droop knob, which the ladder equivalence trials randomise",
    ),
    (
        "to_mask",
        "snapshots a ladder kernel so the tests hold it against `FaultMask::build`",
    ),
    (
        "with_checkpoint_dir",
        "the checkpointed single-process campaign and search the fleet and resume tests compare against",
    ),
    (
        "probe_count",
        "the VminSearch tests check its documented O(log levels) probe count",
    ),
    (
        "probe_budget",
        "the bound `probe_count` is checked against",
    ),
];

/// The non-test part of a source file: the text above its
/// `#[cfg(test)] mod`.
fn non_test(text: &str) -> &str {
    let end = text
        .match_indices("#[cfg(test)]")
        .map(|(at, tag)| at + tag.len())
        .find(|&after| text[after..].trim_start().starts_with("mod "))
        .map_or(text.len(), |after| after - "#[cfg(test)]".len());
    &text[..end]
}

/// `text` without its whole-line comments and its `pub use` lists, so a
/// name in a doc comment or a re-export is not taken for a caller.
fn callers_only(text: &str) -> String {
    let code: String = text
        .lines()
        .filter(|line| !line.trim_start().starts_with("//"))
        .flat_map(|line| [line, "\n"])
        .collect();
    let mut out = String::new();
    let mut rest = code.as_str();
    while let Some(at) = rest.find("pub use ") {
        out.push_str(&rest[..at]);
        rest = &rest[at..];
        rest = &rest[rest.find(';').map_or(rest.len(), |end| end + 1)..];
    }
    out.push_str(rest);
    out
}

#[test]
fn every_pub_fn_has_a_caller_outside_tests() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let mut files = Vec::new();
    for dir in ["crates", "perfbench"] {
        rust_files(&root.join(dir), &root, &mut files);
    }
    let mut declared: Vec<(String, String)> = Vec::new();
    let mut uses: BTreeMap<String, usize> = BTreeMap::new();
    for file in &files {
        let parts: Vec<&str> = file.split('/').collect();
        let text = std::fs::read_to_string(root.join(file)).expect("read source");
        let text = match parts.as_slice() {
            ["crates", _, "src", ..] => {
                let source = non_test(&text);
                declared.extend(
                    pub_items(source)
                        .into_iter()
                        .filter(|(kind, _)| *kind == "fn")
                        .map(|(_, name)| (file.clone(), name.to_string())),
                );
                source
            }
            ["crates", _, "examples", ..] | ["perfbench", ..] => &text,
            _ => continue,
        };
        for name in idents(&callers_only(text)) {
            *uses.entry(name.to_string()).or_default() += 1;
        }
    }
    assert!(
        declared.len() > 100,
        "only {} pub fns found",
        declared.len()
    );
    let mut declarations: BTreeMap<&str, usize> = BTreeMap::new();
    for (_, name) in &declared {
        *declarations.entry(name).or_default() += 1;
    }
    let is_uncalled = |name: &str| uses.get(name).copied().unwrap_or(0) <= declarations[name];
    let uncalled: Vec<String> = declared
        .iter()
        .filter(|(_, name)| is_uncalled(name))
        .filter(|(_, name)| !ORACLES.iter().any(|(oracle, _)| oracle == name))
        .map(|(file, name)| format!("{file}: {name}"))
        .collect();
    assert!(
        uncalled.is_empty(),
        "pub fns with no caller outside tests (call them, delete them, or list \
         them in ORACLES with a reason): {uncalled:#?}"
    );
    for (oracle, _) in ORACLES {
        assert!(
            declarations.contains_key(oracle) && is_uncalled(oracle),
            "ORACLES lists {oracle}, which is not an uncalled pub fn"
        );
    }
}
