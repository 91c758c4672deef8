//! Every `pub` has a caller: the census of each crate's public surface.
//!
//! Every crate in the workspace is `publish = false`, so `pub` on an item
//! only ever means "named by another crate, a `src/bin` binary, a test, a
//! bench, an example or the benchmark adapter". This test collects every
//! `pub fn|struct|enum|trait|type|const|static` name declared in a crate's
//! library sources (`crates/<c>/src` outside `src/bin`) and fails on each
//! one that has no user outside those sources. A user is
//!
//! - a whole-word mention in any other Rust file of the repository (comments
//!   do not count), or in the body of a `macro_rules!` of the crate itself,
//!   which expands in the caller's crate; or
//! - for a type or constant, a mention in the signature, fields or variants
//!   of a `pub` item of the same crate that itself has a user, or in an
//!   associated type of a trait that item implements: the compiler insists
//!   that what a public interface names is public.
//!
//! The scan is by name, so it is a floor: once an item is private, the
//! compiler's dead-code lint decides whether it is used at all.
//!
//! The census also counts, without failing, the names whose every user is
//! a test — a file under a `tests/` directory, or a `#[cfg(test)]` module —
//! and prints each one's declaration as `file:line: name` under the count.
//! A test seam is a legitimate reason for `pub`; an ABI only tests call is
//! a second spelling of the code that production never runs.

use std::collections::HashSet;
use std::fs;
use std::path::{Path, PathBuf};

/// Owner of the files no crate's library claims (tests, binaries, examples,
/// the benchmark adapter) and of what a crate's macros expand to.
const NO_CRATE: usize = usize::MAX;

fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            let name = entry.file_name();
            if name != "target" && !name.to_string_lossy().starts_with('.') {
                rust_files(&path, out);
            }
        } else if path.extension().is_some_and(|ext| ext == "rs") {
            out.push(path);
        }
    }
}

/// The code on a line: everything before a `//` comment.
fn code_of(line: &str) -> &str {
    line.find("//").map_or(line, |at| &line[..at]).trim_end()
}

fn words(code: &str) -> impl Iterator<Item = &str> {
    code.split(|c: char| !c.is_ascii_alphanumeric() && c != '_')
        .filter(|word| !word.is_empty())
}

/// The `#[cfg(test)]` modules `text` declares, inline (`mod name {`) and
/// in files of their own (`mod name;`): per line, whether it is part of an
/// inline one, and the names of the others.
fn test_modules(text: &str) -> (Vec<bool>, Vec<String>) {
    let (mut inline, mut files) = (Vec::new(), Vec::new());
    // The closing line of the test module being read, and whether the
    // attributes just read include `#[cfg(test)]`.
    let mut closing: Option<String> = None;
    let mut cfg_test = false;
    for line in text.lines() {
        let code = code_of(line);
        let item = code.trim_start();
        if closing.is_none() && cfg_test {
            if let Some(name) = item
                .strip_prefix("mod ")
                .and_then(|rest| words(rest).next())
            {
                if code.ends_with('{') {
                    let indent = &code[..code.len() - item.len()];
                    closing = Some(format!("{indent}}}"));
                } else {
                    files.push(name.to_owned());
                }
            }
        }
        cfg_test = item == "#[cfg(test)]" || (cfg_test && item.starts_with("#["));
        inline.push(closing.is_some());
        if closing.as_deref() == Some(code) {
            closing = None;
        }
    }
    (inline, files)
}

/// The words of `text`'s code, split into those outside and those inside
/// `#[cfg(test)]` modules (the whole file, when `test` says it is one).
fn code_words(text: &str, test: bool) -> (HashSet<String>, HashSet<String>) {
    let (mut live, mut tests) = (HashSet::new(), HashSet::new());
    let (inline, _) = test_modules(text);
    for (line, in_test) in text.lines().zip(inline) {
        let code = code_of(line);
        let words = words(code).map(str::to_owned);
        if test || in_test {
            tests.extend(words);
        } else {
            live.extend(words);
        }
    }
    (live, tests)
}

/// The capitalised words of a line: the types and constants it names.
fn type_names(code: &str) -> impl Iterator<Item = String> + '_ {
    words(code)
        .filter(|word| word.starts_with(|c: char| c.is_ascii_uppercase()))
        .map(str::to_owned)
}

/// The keyword and name a line declares with a bare `pub` (not
/// `pub(crate)`), if any.
fn declared_pub_item(code: &str) -> Option<(&str, &str)> {
    let mut parts = code.trim_start().strip_prefix("pub ")?.split(' ');
    let mut keyword = parts.next()?;
    let mut after = parts.next()?;
    if matches!(keyword, "const" | "async" | "unsafe") && after == "fn" {
        keyword = after;
        after = parts.next()?;
    }
    let name = words(after).next()?;
    matches!(
        keyword,
        "fn" | "struct" | "enum" | "trait" | "type" | "const" | "static"
    )
    .then_some((keyword, name))
}

/// Where the lines that belong to the item being declared stop.
enum Until {
    /// A signature: the first line ending in `{`, `;` or `}`.
    SignatureEnd,
    /// A braced body: this closing line.
    Closing(String),
}

/// What the library sources of the workspace declare.
#[derive(Default)]
struct Census {
    /// `pub` declarations: crate, name and `file:line`.
    declared: Vec<(usize, String, String)>,
    /// Per item (crate, name), the types and constants its interface names.
    carried: Vec<(usize, String, HashSet<String>)>,
    /// Words inside `macro_rules!` bodies.
    exported: HashSet<String>,
}

impl Census {
    /// The declared `(crate, name)`s with a user outside their crate's
    /// library among `files` (`(owner, words outside tests, words inside
    /// tests)`), counting test words only when `tests` says so.
    fn used(
        &self,
        files: &[(usize, HashSet<String>, HashSet<String>)],
        tests: bool,
    ) -> HashSet<(usize, &str)> {
        let mut used: HashSet<(usize, &str)> = self
            .declared
            .iter()
            .filter(|(owner, name, _)| {
                files.iter().any(|(file_owner, live, test_words)| {
                    file_owner != owner
                        && (live.contains(name) || (tests && test_words.contains(name)))
                })
            })
            .map(|(owner, name, _)| (*owner, name.as_str()))
            .collect();
        // A public item with a user carries the types and constants it names.
        loop {
            let newly: Vec<(usize, &str)> = self
                .carried
                .iter()
                .filter(|(owner, carrier, _)| used.contains(&(*owner, carrier.as_str())))
                .flat_map(|(owner, _, names)| names.iter().map(|name| (*owner, name.as_str())))
                .filter(|key| !used.contains(key))
                .collect();
            if newly.is_empty() {
                return used;
            }
            used.extend(newly);
        }
    }

    fn scan(&mut self, owner: usize, text: &str, place: &str) {
        let mut open: Option<Until> = None;
        let mut in_macro = false;
        let mut implementor: Option<String> = None;
        for (number, line) in text.lines().enumerate() {
            let code = code_of(line);
            if in_macro {
                self.exported.extend(words(code).map(str::to_owned));
                in_macro = code != "}";
                continue;
            }
            if open.is_none() {
                if code.starts_with("macro_rules!") {
                    in_macro = true;
                } else if code == "}" {
                    implementor = None;
                } else if code.starts_with("impl") {
                    implementor = code
                        .split_once(" for ")
                        .and_then(|(_, rest)| words(rest).next())
                        .map(str::to_owned);
                } else if let (Some(name), true) =
                    (&implementor, code.trim_start().starts_with("type "))
                {
                    let names = type_names(code).collect();
                    self.carried.push((owner, name.clone(), names));
                }
                let Some((keyword, name)) = declared_pub_item(code) else {
                    continue;
                };
                let place = format!("{place}:{}", number + 1);
                self.declared.push((owner, name.to_owned(), place));
                self.carried.push((owner, name.to_owned(), HashSet::new()));
                open = Some(Until::SignatureEnd);
                if matches!(keyword, "struct" | "enum" | "trait") && code.ends_with('{') {
                    let indent = &code[..code.len() - code.trim_start().len()];
                    open = Some(Until::Closing(format!("{indent}}}")));
                }
            }
            let (.., carried) = self.carried.last_mut().expect("an item is open");
            carried.extend(type_names(code));
            let closed = match open.as_ref().expect("an item is open") {
                Until::SignatureEnd => code.ends_with(['{', ';', '}']),
                Until::Closing(brace) => code == brace,
            };
            if closed {
                open = None;
            }
        }
    }
}

#[test]
fn every_pub_name_has_a_user_outside_its_crate() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut crates: Vec<PathBuf> = fs::read_dir(root.join("crates"))
        .expect("crates/ is readable")
        .flatten()
        .map(|entry| entry.path().join("src"))
        .filter(|src| src.is_dir())
        .collect();
    crates.sort();

    let mut paths = Vec::new();
    for dir in ["crates", "tests", "examples", "src", "benchmark/src"] {
        rust_files(&root.join(dir), &mut paths);
    }
    let texts: Vec<String> = (paths.iter())
        .map(|path| fs::read_to_string(path).expect("source file is UTF-8"))
        .collect();
    // Where the `#[cfg(test)]` modules in files of their own live: `name`
    // declared in `lib.rs`, `main.rs` or `mod.rs` is beside it, declared in
    // `foo.rs` under `foo/`; its own submodules are under `name/`.
    let mut test_trees: Vec<PathBuf> = Vec::new();
    for (path, text) in paths.iter().zip(&texts) {
        let dir = match path.file_stem().and_then(|stem| stem.to_str()) {
            Some("lib" | "main" | "mod") | None => path.with_file_name(""),
            Some(stem) => path.with_file_name(stem),
        };
        test_trees.extend(test_modules(text).1.iter().map(|name| dir.join(name)));
    }
    let mut census = Census::default();
    // Per file, the crate whose library it belongs to and the words in it,
    // outside and inside tests.
    let mut files: Vec<(usize, HashSet<String>, HashSet<String>)> = Vec::new();
    for (path, text) in paths.iter().zip(&texts) {
        let owner = crates
            .iter()
            .position(|src| path.starts_with(src) && !path.starts_with(src.join("bin")))
            .unwrap_or(NO_CRATE);
        let relative = path.strip_prefix(root).unwrap_or(path);
        if owner != NO_CRATE {
            census.scan(owner, text, &relative.display().to_string());
        }
        let test = relative
            .components()
            .any(|part| part.as_os_str() == "tests")
            || test_trees
                .iter()
                .any(|tree| path.starts_with(tree) || *path == tree.with_extension("rs"));
        let (live, tests) = code_words(text, test);
        files.push((owner, live, tests));
    }
    let exported = std::mem::take(&mut census.exported);
    files.push((NO_CRATE, exported, HashSet::new()));

    let used = census.used(&files, true);
    let used_live = census.used(&files, false);
    let unused: Vec<String> = census
        .declared
        .iter()
        .filter(|(owner, name, _)| !used.contains(&(*owner, name.as_str())))
        .map(|(_, name, place)| format!("  {place}: {name}"))
        .collect();
    let names: HashSet<(usize, &str)> = census
        .declared
        .iter()
        .map(|(owner, name, _)| (*owner, name.as_str()))
        .collect();
    let test_only = |key: &(usize, &str)| used.contains(key) && !used_live.contains(key);
    let test_only_places: Vec<String> = (census.declared.iter())
        .filter(|(owner, name, _)| test_only(&(*owner, name.as_str())))
        .map(|(_, name, place)| format!("  {place}: {name}"))
        .collect();
    println!(
        "pub surface: {} names in {} crates, {} without an outside user, {} used only by tests",
        names.len(),
        crates.len(),
        unused.len(),
        names.iter().filter(|key| test_only(key)).count()
    );
    println!("{}", test_only_places.join("\n"));
    assert!(
        unused.is_empty(),
        "{} `pub` items have no user outside their crate's library (drop the \
         `pub`, then delete what the compiler reports dead):\n{}",
        unused.len(),
        unused.join("\n")
    );
}
