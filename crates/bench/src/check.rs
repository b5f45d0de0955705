//! `--check` support for the figure bins: does a checked-in
//! `BENCH_*.json` still say what its bin computes?
//!
//! The results files hold one entry per line, and an entry's leading
//! cells name its row (codec, size, …). A bin compiles its checked-in
//! file in (`include_str!`), recomputes, and hands both texts here; the
//! current directory does not matter and nothing is written.

/// The lines of a results file, without indentation or the separating
/// comma.
fn rows(text: &str) -> impl Iterator<Item = &str> {
    text.lines().map(|l| l.trim().trim_end_matches(','))
}

/// The cells that name `row`: everything before its `cells`-th comma.
fn key(row: &str, cells: usize) -> &str {
    let end = row
        .match_indices(',')
        .nth(cells - 1)
        .map_or(row.len(), |(at, _)| at);
    &row[..end]
}

/// The row of `checked_in` whose first `key_cells` cells are `row`'s.
pub fn checked_in_row<'a>(checked_in: &'a str, row: &str, key_cells: usize) -> Option<&'a str> {
    rows(checked_in).find(|old| old.starts_with('{') && key(old, key_cells) == key(row, key_cells))
}

/// The numeric cell `name` of one entry line.
pub fn cell(entry: &str, name: &str) -> f64 {
    // Skip the name and the `": ` after it.
    let at = entry.find(name).expect("cell present") + name.len() + 3;
    let rest = &entry[at..];
    rest[..rest.find([',', '}']).expect("cell terminated")]
        .parse()
        .expect("numeric cell")
}

/// Compare `recomputed` (a whole results file, or just some of its
/// entry lines) with `checked_in`, reporting on stderr every recomputed
/// line the checked-in file does not have verbatim, next to the
/// checked-in row of the same key. With `whole`, `checked_in` must have
/// no further lines either. Returns whether the file reproduces.
pub fn reproduces(
    file: &str,
    checked_in: &str,
    recomputed: &str,
    key_cells: usize,
    whole: bool,
) -> bool {
    let mut drifted = 0;
    for row in rows(recomputed) {
        if !rows(checked_in).any(|old| old == row) {
            drifted += 1;
            eprintln!(
                "{file} drifted:\n  checked in: {}\n  recomputed: {row}",
                checked_in_row(checked_in, row, key_cells).unwrap_or("(no such row)")
            );
        }
    }
    let (old, new) = (rows(checked_in).count(), rows(recomputed).count());
    if whole && old != new {
        drifted += 1;
        eprintln!("{file} drifted: {old} lines checked in, {new} recomputed");
    }
    if drifted == 0 {
        println!("\n{file}: the recomputed rows match");
    }
    drifted == 0
}

#[cfg(test)]
mod tests {
    use super::*;

    const FILE: &str = "{\n  \"entries\": [\n    {\"codec\": \"szx:1e-3\", \"values\": 8, \"ms\": 1.5000},\n    {\"codec\": \"szx:1e-3\", \"values\": 16, \"ms\": 2.2500}\n  ]\n}\n";

    #[test]
    fn finds_rows_by_key_and_reads_cells() {
        let row = "{\"codec\": \"szx:1e-3\", \"values\": 16, \"ms\": 9.0}";
        let old = checked_in_row(FILE, row, 2).expect("row present");
        assert_eq!(cell(old, "ms"), 2.25);
        assert!(checked_in_row(FILE, "{\"codec\": \"none\", \"values\": 16,", 2).is_none());
    }

    #[test]
    fn a_changed_cell_or_a_missing_row_does_not_reproduce() {
        assert!(reproduces("f", FILE, FILE, 2, true));
        let one = "{\"codec\": \"szx:1e-3\", \"values\": 8, \"ms\": 1.5000}";
        assert!(reproduces("f", FILE, one, 2, false));
        assert!(!reproduces("f", FILE, one, 2, true));
        assert!(!reproduces(
            "f",
            FILE,
            &one.replace("1.5000", "1.5001"),
            2,
            false
        ));
    }
}
