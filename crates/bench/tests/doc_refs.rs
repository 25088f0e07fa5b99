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
use uvf_trace::Json;

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
    all_files(dir, dir, &mut files);
    for file in files.iter().filter(|file| file.ends_with(".rs")) {
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

/// Every file under `dir`, as a path relative to `root`, skipping build
/// output.
fn all_files(dir: &Path, root: &Path, files: &mut Vec<String>) {
    for entry in std::fs::read_dir(dir).expect("read dir") {
        let path = entry.expect("dir entry").path();
        if path.is_dir() {
            if !path.ends_with("target") {
                all_files(&path, root, files);
            }
        } else {
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
        all_files(&root.join(dir), &root, &mut files);
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

/// `pub fn`s that only tests call, each as `key: reason`, keyed as
/// [`pub_fns`] keys them (`Type::name`, or a free function's bare name):
/// the reference a test holds a production path against, or the handle a
/// test needs to reach it.
const ORACLES: &[&str] = &[
    "ServerHandle::observatory: the handle the heartbeat test reads the fleet counters through",
    "PrometheusSink::gauge: the per-owner gauge readout the FVM-cache and observatory unit tests check",
    "MemorySink::dropped: the ring-eviction count the sink and trace-event tests hold the sink to",
    "FaultModel::sentinel: the die's weakest cell, which the ladder, mask, cache and die-sharing tests probe",
    "reference_decode: the textbook SECDED decoder the table-driven `decode` is held against",
    "FaultModel::for_each_failing_resolved: the per-cell scan fault masks and level counts are held against",
    "FaultModel::total_weak_cells: the die size the weak-cell digests and die-sharing tests pin",
    "FaultModel::environment_noise_mv: reads DESIGN §6b's supply-droop knob back in the die-sharing tests",
    "FaultModel::set_environment_noise_mv: DESIGN §6b's supply-droop knob, randomised by the ladder trials",
    "FaultMask::flip_cells: the flip count the mask-equivalence, plan and pinned-chip tests hold a mask to",
    "FvmCache::clear: the cold-cache reset the rung-reuse test starts its cold run from",
    "FvmRecord::from_json: the decoder the FVM record's round-trip and garbage-input tests hold its bytes to",
    "Campaign::with_checkpoint_dir: the checkpointed campaign the fleet and resume tests compare against",
    "JobQueue::is_empty: clippy's `len_without_is_empty` asks for it beside the called `JobQueue::len`",
    "QTensor::is_empty: clippy's `len_without_is_empty` asks for it beside the called `QTensor::len`",
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

/// The last segment of a type path, without generic arguments:
/// `model::FaultModel<'a> {` → `FaultModel`.
fn type_name(path: &str) -> &str {
    let path = path.trim_start();
    let path = &path[..path.find(['<', ' ', '{']).unwrap_or(path.len())];
    path.rsplit("::").next().unwrap_or(path)
}

/// The type an `impl` header extends: `impl<'a> Tr for a::Ty<'a> {` → `Ty`.
fn impl_type(header: &str) -> Option<&str> {
    let mut rest = header.strip_prefix("impl")?;
    if rest.starts_with('<') {
        let mut depth = 0;
        let close = rest.find(|c| {
            depth += i32::from(c == '<') - i32::from(c == '>');
            depth == 0
        })?;
        rest = &rest[close + 1..];
    }
    let ty = rest.strip_prefix(' ')?;
    Some(type_name(ty.rsplit(" for ").next()?))
}

/// The `pub fn`s of a file's non-test source outside `macro_rules!`
/// bodies, as the byte offset of each `pub` and its key: `Type::name` in an
/// `impl Type` block, the bare name elsewhere. A nested item's owner is
/// read from rustfmt's layout (CI checks it): the nearest line above that
/// is indented less, past a multi-line header's `where` and `{`.
fn pub_fns(source: &str) -> Vec<(usize, String)> {
    let mut at = 0;
    let lines: Vec<(usize, usize, &str)> = source
        .split_inclusive('\n')
        .map(|line| {
            let code = line.trim_start();
            let indent = line.len() - code.len();
            at += line.len();
            (at - code.len(), indent, code.trim_end())
        })
        .collect();
    let mut fns = Vec::new();
    let mut macro_body = None;
    for (i, &(at, indent, code)) in lines.iter().enumerate() {
        if let Some(depth) = macro_body {
            if indent == depth && code.starts_with('}') {
                macro_body = None;
            }
            continue;
        }
        if code.starts_with("macro_rules!") {
            macro_body = Some(indent);
        }
        let Some(("fn", name)) = code
            .starts_with("pub ")
            .then(|| pub_items(code).first().copied())
            .flatten()
        else {
            continue;
        };
        let owner = lines[..i]
            .iter()
            .rev()
            .find(|&&(_, inner, line)| inner < indent && !["", "{", "where"].contains(&line))
            .and_then(|&(_, _, line)| impl_type(line));
        fns.push((
            at,
            owner.map_or(name.to_string(), |ty| format!("{ty}::{name}")),
        ));
    }
    fns
}

/// The key of the `pub fn` a `use of deprecated` warning names by its
/// path, as [`pub_fns`] keys it: `engine::MappedNetwork::<'a>::load` and
/// `uvf_accel::MappedNetwork::<'a>::load` are both
/// `MappedNetwork::load`, `fvm::<impl model::FaultModel>::map` is
/// `FaultModel::map`, and `uvf_fpga::seedmix::fnv1a` is `fnv1a`. The
/// crate is left out, since a re-export names an item by another crate.
fn callee_key(path: &str) -> String {
    let mut segments = Vec::new();
    let (mut depth, mut start) = (0, 0);
    for (at, c) in path.char_indices() {
        match c {
            '<' => depth += 1,
            '>' => depth -= 1,
            ':' if depth == 0 && path[at..].starts_with("::") => {
                segments.push(&path[start..at]);
                start = at + 2;
            }
            _ => {}
        }
    }
    segments.push(&path[start..]);
    let names: Vec<&str> = segments
        .into_iter()
        .filter_map(|seg| match seg.strip_prefix("<impl ") {
            Some(ty) => Some(type_name(ty.strip_suffix('>').unwrap_or(ty))),
            None => (!seg.starts_with('<') && !seg.is_empty()).then_some(seg),
        })
        .collect();
    match names.as_slice() {
        [.., ty, name] if ty.starts_with(|c: char| c.is_ascii_uppercase()) => {
            format!("{ty}::{name}")
        }
        [.., name] => name.to_string(),
        [] => String::new(),
    }
}

/// The keys of the callees that `use of deprecated` warnings in cargo's
/// JSON messages name.
fn deprecated_callees(messages: &str) -> BTreeSet<String> {
    messages
        .lines()
        .filter_map(|line| {
            let message = Json::parse(line).ok()?;
            let text = message.get("message")?.get("message")?.as_str()?;
            let path = text.strip_prefix("use of deprecated ")?.split('`').nth(1)?;
            Some(callee_key(path))
        })
        .collect()
}

#[test]
fn callee_paths_resolve_to_declarations() {
    let source = "pub fn fnv1a() {}\n\
                  impl<'a> MappedNetwork<'a> {\n    pub fn load_traced(&self) {}\n}\n\
                  impl FvmCache {\n    pub fn model(&self) {}\n}\n\
                  impl FaultModel\nwhere\n    X: Y,\n{\n    pub const fn variation_map_at(&self) {}\n}\n\
                  impl Harness {\n    /// Doc.\n    pub fn model(&self) {}\n}\n\
                  macro_rules! m {\n    () => { pub fn hidden() {} };\n}\n";
    let keys: Vec<String> = pub_fns(source).into_iter().map(|(_, key)| key).collect();
    assert_eq!(
        keys,
        [
            "fnv1a",
            "MappedNetwork::load_traced",
            "FvmCache::model",
            "FaultModel::variation_map_at",
            "Harness::model"
        ]
    );
    let warning = |path: &str| {
        format!(
            r#"{{"reason":"compiler-message","message":{{"message":"use of deprecated method `{path}`","code":{{"code":"deprecated","explanation":null}},"level":"warning","spans":[]}}}}"#
        )
    };
    let messages = [
        r#"{"reason":"compiler-artifact","target":{"name":"uvf_fpga"},"fresh":true}"#.to_string(),
        warning("engine::MappedNetwork::<'a>::load_traced"),
        warning("uvf_accel::MappedNetwork::<'a>::load_traced"),
        warning("fvm::<impl model::FaultModel>::variation_map_at"),
        warning("cache::FvmCache::model"),
        warning("uvf_fpga::seedmix::fnv1a"),
    ]
    .join("\n");
    assert_eq!(
        deprecated_callees(&messages)
            .into_iter()
            .collect::<Vec<_>>(),
        [
            "FaultModel::variation_map_at",
            "FvmCache::model",
            "MappedNetwork::load_traced",
            "fnv1a"
        ]
    );
}

/// The keys of the `pub fn`s that a deprecation warning names when the
/// copied tree's libraries, binaries and examples (no test) are checked
/// from `manifest`, with `target` as the target directory.
fn called_pub_fns(manifest: &Path, target: &Path) -> BTreeSet<String> {
    let out = Command::new(env!("CARGO"))
        .args(["check", "--offline", "--message-format=json", "--workspace"])
        .args(["--lib", "--bins", "--examples", "--manifest-path"])
        .arg(manifest)
        .arg("--target-dir")
        .arg(target)
        .env("RUSTFLAGS", "--cap-lints=warn")
        .output()
        .expect("run cargo check");
    assert!(
        out.status.success(),
        "cargo check of {} failed: {}",
        manifest.display(),
        String::from_utf8_lossy(&out.stderr)
    );
    deprecated_callees(&String::from_utf8(out.stdout).expect("utf-8 messages"))
}

/// Every non-test `pub fn` must have a caller outside tests, which the
/// compiler finds: in a copy of the tree each one is `#[deprecated]`, so
/// checking the libraries, binaries, examples and `perfbench/` warns at
/// every use. A `pub fn` that no warning names is called only by tests.
#[test]
fn every_pub_fn_has_a_caller_outside_tests() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let tmp = Path::new(env!("CARGO_TARGET_TMPDIR"));
    let copy = tmp.join("callers");
    let mut files = Vec::new();
    for dir in ["crates", "perfbench"] {
        if copy.join(dir).exists() {
            std::fs::remove_dir_all(copy.join(dir)).expect("clear the copy");
        }
        all_files(&root.join(dir), &root, &mut files);
    }
    files.extend(["Cargo.toml", "Cargo.lock"].map(String::from));
    let mut declared: BTreeMap<String, String> = BTreeMap::new();
    let mut duplicates = Vec::new();
    for file in &files {
        let from = root.join(file);
        let mut bytes = std::fs::read(&from).expect("read source");
        let parts: Vec<&str> = file.split('/').collect();
        if let ["crates", _, "src", .., name] = parts.as_slice() {
            if name.ends_with(".rs") {
                let mut text = String::from_utf8(bytes).expect("utf-8 source");
                for (at, key) in pub_fns(non_test(&text)).into_iter().rev() {
                    text.insert_str(at, "#[deprecated] ");
                    if let Some(first) = declared.insert(key.clone(), file.clone()) {
                        duplicates.push(format!("{key} in {first} and {file}"));
                    }
                }
                bytes = text.into_bytes();
            }
        }
        let to = copy.join(file);
        std::fs::create_dir_all(to.parent().expect("a parent")).expect("mkdir");
        std::fs::write(&to, bytes).expect("write the copy");
        // Unchanged sources keep their time stamp, so a warm check is quick.
        let modified = std::fs::metadata(&from).and_then(|m| m.modified());
        std::fs::File::options()
            .write(true)
            .open(&to)
            .and_then(|f| f.set_modified(modified?))
            .expect("stamp the copy");
    }
    assert!(
        declared.len() > 100,
        "only {} pub fns found",
        declared.len()
    );
    assert!(
        duplicates.is_empty(),
        "two pub fns share a key, so a call to one would hide the other: {duplicates:#?}"
    );
    let target = tmp.join("callers-target");
    let mut called = called_pub_fns(&copy.join("Cargo.toml"), &target);
    called.extend(called_pub_fns(&copy.join("perfbench/Cargo.toml"), &target));
    let unknown: Vec<&String> = called
        .iter()
        .filter(|key| !declared.contains_key(*key))
        .collect();
    assert!(
        unknown.is_empty(),
        "deprecation warnings name callees no declaration is keyed as: {unknown:#?}"
    );
    let oracles: BTreeSet<&str> = ORACLES
        .iter()
        .map(|entry| entry.split_once(": ").expect("key: reason").0)
        .collect();
    let uncalled: Vec<String> = declared
        .iter()
        .filter(|(key, _)| !called.contains(*key))
        .filter(|(key, _)| !oracles.contains(key.as_str()))
        .map(|(key, file)| format!("{file}: {key}"))
        .collect();
    assert!(
        uncalled.is_empty(),
        "pub fns with no caller outside tests (call them, delete them, or list \
         them in ORACLES with a reason): {uncalled:#?}"
    );
    for oracle in oracles {
        assert!(
            declared.contains_key(oracle) && !called.contains(oracle),
            "ORACLES lists {oracle}, which is not an uncalled pub fn"
        );
    }
}
