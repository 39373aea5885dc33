//! Argument parsing for the `repro` binary, split out so the selection
//! and flag logic is unit-testable.

/// What the invocation asked for.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Mode {
    /// Print the available experiment ids.
    List,
    /// Run the shape-check suite.
    Check,
    /// Run the selected experiments.
    Run,
}

/// Parsed `repro` command line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Cli {
    /// What to do.
    pub mode: Mode,
    /// Experiment ids to run, in request order, deduplicated.
    pub selected: Vec<String>,
    /// Directory to dump per-experiment JSON into (`--json DIR`).
    pub json_dir: Option<String>,
    /// Host worker threads (`--jobs N` / `-j N`); `None` means the
    /// default (available host parallelism). `--serial` forces 1.
    pub jobs: Option<usize>,
}

impl Cli {
    /// The value to hand to [`crate::rig::set_jobs`]: an explicit count,
    /// or 0 for "use the host's available parallelism".
    pub fn jobs_setting(&self) -> usize {
        self.jobs.unwrap_or(0)
    }
}

/// Removes duplicates from `ids` while keeping the first occurrence of
/// each in place — unlike `Vec::dedup`, which only collapses *adjacent*
/// repeats (so `repro e1 e2 e1` used to run e1 twice).
pub fn dedup_preserving_order(ids: &mut Vec<String>) {
    let mut seen = std::collections::HashSet::new();
    ids.retain(|id| seen.insert(id.clone()));
}

/// Parses the `repro` arguments against the known experiment ids.
///
/// `list`/`check` short-circuit selection; `all` expands to every known
/// id; unknown ids and flags are errors so typos fail fast instead of
/// silently running nothing.
pub fn parse(args: &[String], known_ids: &[&str]) -> Result<Cli, String> {
    let mut cli = Cli {
        mode: Mode::Run,
        selected: Vec::new(),
        json_dir: None,
        jobs: None,
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "list" => cli.mode = Mode::List,
            "check" => cli.mode = Mode::Check,
            "all" => cli
                .selected
                .extend(known_ids.iter().map(|id| id.to_string())),
            "--json" => {
                cli.json_dir = Some(
                    it.next()
                        .ok_or_else(|| "--json requires a directory".to_string())?
                        .clone(),
                );
            }
            "--jobs" | "-j" => {
                let v = it
                    .next()
                    .ok_or_else(|| format!("{a} requires a thread count"))?;
                let n: usize = v
                    .parse()
                    .map_err(|_| format!("{a} expects a positive integer, got '{v}'"))?;
                if n == 0 {
                    return Err(format!("{a} expects a positive integer, got '0'"));
                }
                cli.jobs = Some(n);
            }
            "--serial" => cli.jobs = Some(1),
            flag if flag.starts_with('-') => return Err(format!("unknown flag '{flag}'")),
            id => {
                if !known_ids.contains(&id) {
                    return Err(format!("unknown experiment '{id}' (try `repro list`)"));
                }
                cli.selected.push(id.to_string());
            }
        }
    }
    dedup_preserving_order(&mut cli.selected);
    if cli.mode == Mode::Run && cli.selected.is_empty() {
        return Err(format!(
            "usage: repro [all | list | check | <ids...>] [--json DIR] [--jobs N | --serial]\nids: {}",
            known_ids.join(" ")
        ));
    }
    Ok(cli)
}

#[cfg(test)]
mod tests {
    use super::*;

    const IDS: [&str; 4] = ["e1", "e2", "e5b", "e7"];

    fn argv(s: &[&str]) -> Vec<String> {
        s.iter().map(|a| a.to_string()).collect()
    }

    #[test]
    fn dedup_is_global_and_order_preserving() {
        let mut ids = vec![
            "e1".to_string(),
            "e2".to_string(),
            "e1".to_string(),
            "e7".to_string(),
            "e2".to_string(),
        ];
        dedup_preserving_order(&mut ids);
        assert_eq!(ids, ["e1", "e2", "e7"]);
    }

    #[test]
    fn non_adjacent_duplicate_ids_run_once() {
        let cli = parse(&argv(&["e1", "e2", "e1"]), &IDS).expect("parses");
        assert_eq!(cli.selected, ["e1", "e2"]);
    }

    #[test]
    fn all_expands_and_merges_with_explicit_ids() {
        let cli = parse(&argv(&["e7", "all"]), &IDS).expect("parses");
        assert_eq!(cli.selected, ["e7", "e1", "e2", "e5b"]);
    }

    #[test]
    fn jobs_and_serial_flags() {
        let cli = parse(&argv(&["all", "--jobs", "4"]), &IDS).expect("parses");
        assert_eq!(cli.jobs, Some(4));
        assert_eq!(cli.jobs_setting(), 4);
        let cli = parse(&argv(&["all", "-j", "2"]), &IDS).expect("parses");
        assert_eq!(cli.jobs, Some(2));
        let cli = parse(&argv(&["all", "--serial"]), &IDS).expect("parses");
        assert_eq!(cli.jobs, Some(1));
        let cli = parse(&argv(&["all"]), &IDS).expect("parses");
        assert_eq!(cli.jobs, None);
        assert_eq!(cli.jobs_setting(), 0);
        assert!(parse(&argv(&["all", "--jobs", "0"]), &IDS).is_err());
        assert!(parse(&argv(&["all", "--jobs"]), &IDS).is_err());
        assert!(parse(&argv(&["all", "--jobs", "x"]), &IDS).is_err());
    }

    #[test]
    fn removed_engine_thread_flag_is_unknown() {
        // Every simulation runs on the one serial engine; the flag that
        // once split a simulation across host threads is gone.
        let flag = "--sim-threads";
        for args in [vec!["all", flag, "2"], vec!["all", flag]] {
            assert_eq!(
                parse(&argv(&args), &IDS),
                Err(format!("unknown flag '{flag}'"))
            );
        }
    }

    #[test]
    fn errors_on_unknown_input() {
        assert!(parse(&argv(&["bogus"]), &IDS).is_err());
        assert!(parse(&argv(&["--frobnicate"]), &IDS).is_err());
        assert!(parse(&argv(&[]), &IDS).is_err());
        assert!(parse(&argv(&["--json"]), &IDS).is_err());
    }

    #[test]
    fn list_and_check_modes() {
        assert_eq!(
            parse(&argv(&["list"]), &IDS).expect("parses").mode,
            Mode::List
        );
        let cli = parse(&argv(&["check", "--jobs", "3"]), &IDS).expect("parses");
        assert_eq!(cli.mode, Mode::Check);
        assert_eq!(cli.jobs, Some(3));
    }
}
