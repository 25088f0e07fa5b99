//! The docs must not name `repro` subcommands or flags that do not exist.
//! Every `repro <name>` written as code in README.md, DESIGN.md and
//! EXPERIMENTS.md — inline code spans and fenced blocks — must be a row of
//! the registry `repro list` prints, or one of the built-in modes, and
//! every `--flag` passed to `repro` there must appear in its usage text.

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
