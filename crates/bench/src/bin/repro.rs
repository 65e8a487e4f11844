//! `repro` — regenerates every table and figure of
//! *“Reversible Fault-Tolerant Logic”* (Boykin & Roychowdhury, DSN 2005).
//!
//! ```text
//! repro [list] [--quick] [--trials N] [--seed S] [--threads N]
//!       [--backend auto|scalar|batch]
//!       [--estimator plain|stratified[:MIN[:STRATA]]|auto]
//!       [--rel-error E] [--json DIR] [--check] [--quiet]
//!       [--trace FILE] [--metrics] [--tag TAG] [EXPERIMENT ...]
//! repro replay JOB.json [--threads N] [--stream]
//! ```
//!
//! Experiments are discovered through the
//! [`rft_analysis::experiment::registry`] (run `repro list` to print it)
//! and executed by the cross-point parallel runner under one shared
//! compile cache; with no experiment IDs, everything runs. `--tag TAG`
//! (repeatable) keeps only experiments carrying every given tag, for
//! both `list` and the run set — `repro list --tag detect` prints the
//! detection-subsystem slice of the registry, `repro --quick --tag
//! detect` runs it. Reports are deterministic per seed regardless of
//! `--threads`.
//!
//! `--json DIR` writes one schema-versioned `<id>.json` report per
//! experiment plus a `manifest.json` (config, git describe, wall times);
//! `--check` exits nonzero if any experiment self-check fails;
//! `--backend` sets the backend label reports carry (the default `auto`
//! reads `batch` from 256 trials up; results never depend on it);
//! `--estimator` selects the Monte-Carlo estimator (`auto` routes
//! deep-sub-threshold points to fault-count-stratified rare-event
//! sampling); `--rel-error E` enables adaptive early stopping once the
//! pooled 95% interval's relative half-width `(high − low) / (2 · rate)`
//! is at or below `E` (about 1.96× a relative standard error).
//!
//! Observability: per-experiment progress lines go to stderr by default
//! (`--quiet` silences them); `--trace FILE` records spans from the
//! instrumentation layer and writes a Chrome-trace-event JSON viewable in
//! Perfetto or `chrome://tracing`; `--metrics` prints the aggregate
//! counter/gauge/histogram table after the run and attaches a `resources`
//! section to each report. Collection never perturbs results: reports are
//! byte-identical with or without `--trace`/`--metrics` (the `resources`
//! section is additive, and `--json` goldens are written without it
//! unless `--metrics` is given).
//!
//! `repro replay JOB.json` reproduces an `rft-serve` answer offline: the
//! file (or stdin via `-`) holds the job record every served final line
//! embeds (or a bare spec), and the command prints the identical final
//! NDJSON line — byte-for-byte, at any `--threads` — to stdout.
//! `--stream` also prints the per-round interval lines, reproducing the
//! full served stream. This is the determinism contract's offline half;
//! `scripts/serve_smoke.py` diffs the two in CI.
//!
//! Exit codes: 0 success, 1 failed self-check under `--check` (or an I/O
//! failure), 2 usage error.

use rft_analysis::experiment::{
    find, registry, run_experiments_with, Experiment, RunManifest, RunnerOptions,
};
use rft_analysis::experiments::RunConfig;
use rft_obs::Collector;
use std::process::ExitCode;
use std::time::Instant;

struct Cli {
    cfg: RunConfig,
    chosen: Vec<&'static dyn Experiment>,
    tags: Vec<String>,
    json_dir: Option<String>,
    check: bool,
    list: bool,
    quiet: bool,
    trace_file: Option<String>,
    metrics: bool,
}

/// Does `exp` carry every requested tag? (No tags requested = match.)
fn matches_tags(exp: &dyn Experiment, tags: &[String]) -> bool {
    tags.iter().all(|t| exp.tags().contains(&t.as_str()))
}

fn usage() -> String {
    let ids: Vec<&str> = registry().iter().map(|e| e.id()).collect();
    format!(
        "usage: repro [list] [--quick] [--trials N] [--seed S] [--threads N]\n\
         \x20            [--backend auto|scalar|batch]\n\
         \x20            [--estimator plain|stratified[:MIN[:STRATA]]|auto]\n\
         \x20            [--rel-error E] [--json DIR] [--check] [--quiet]\n\
         \x20            [--trace FILE] [--metrics] [--tag TAG] [EXPERIMENT ...]\n\
         \x20      repro replay JOB.json [--threads N] [--stream]\n\
         experiments: {}\n\
         `repro list` prints the registry (id, title, tags); `--tag TAG` keeps\n\
         only experiments carrying TAG (repeatable; filters both `list` and the\n\
         run set, e.g. `repro list --tag detect`); `--json DIR` writes\n\
         one <id>.json report per experiment plus manifest.json; `--check` exits\n\
         nonzero if any experiment self-check fails; `--quiet` silences the\n\
         per-experiment stderr progress lines; `--trace FILE` writes a\n\
         Chrome-trace-event JSON of the run; `--metrics` prints the counter\n\
         table and attaches resource sections to reports; `--rel-error E` stops\n\
         each estimate once its 95% interval's relative half-width\n\
         (high - low) / (2 * rate) is at or below E.",
        ids.join(" ")
    )
}

fn parse_args(args: impl Iterator<Item = String>) -> Result<Cli, String> {
    let mut cli = Cli {
        cfg: RunConfig::full(),
        chosen: Vec::new(),
        tags: Vec::new(),
        json_dir: None,
        check: false,
        list: false,
        quiet: false,
        trace_file: None,
        metrics: false,
    };
    let raw: Vec<String> = args.collect();
    let mut i = 0usize;
    let mut quick = false;
    let mut explicit_trials: Option<u64> = None;
    let next_value = |i: &mut usize, flag: &str, raw: &[String]| -> Result<String, String> {
        *i += 1;
        raw.get(*i)
            .cloned()
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    while i < raw.len() {
        let arg = raw[i].as_str();
        match arg {
            "list" => cli.list = true,
            "--quick" => quick = true,
            "--trials" => {
                let v = next_value(&mut i, "--trials", &raw)?;
                let trials: u64 = v
                    .parse()
                    .map_err(|_| format!("--trials must be a positive integer, got {v:?}"))?;
                if trials == 0 {
                    return Err("--trials must be at least 1".into());
                }
                explicit_trials = Some(trials);
            }
            "--seed" => {
                let v = next_value(&mut i, "--seed", &raw)?;
                cli.cfg.seed = v
                    .parse()
                    .map_err(|_| format!("--seed must be an integer, got {v:?}"))?;
            }
            "--threads" => {
                let v = next_value(&mut i, "--threads", &raw)?;
                cli.cfg.threads = v
                    .parse()
                    .map_err(|_| format!("--threads must be a positive integer, got {v:?}"))?;
                if cli.cfg.threads == 0 {
                    return Err("--threads must be at least 1".into());
                }
            }
            "--backend" => {
                let v = next_value(&mut i, "--backend", &raw)?;
                cli.cfg.backend = v.parse()?;
            }
            "--estimator" => {
                let v = next_value(&mut i, "--estimator", &raw)?;
                cli.cfg.estimator = v.parse()?;
            }
            "--rel-error" => {
                let v = next_value(&mut i, "--rel-error", &raw)?;
                let target: f64 = v
                    .parse()
                    .map_err(|_| format!("--rel-error must be a number, got {v:?}"))?;
                if !(target > 0.0 && target.is_finite()) {
                    return Err(format!("--rel-error must be positive and finite, got {v}"));
                }
                cli.cfg.target_rel_error = Some(target);
            }
            "--json" => {
                let v = next_value(&mut i, "--json", &raw)?;
                cli.json_dir = Some(v);
            }
            "--tag" => {
                let v = next_value(&mut i, "--tag", &raw)?;
                if !registry().iter().any(|e| e.tags().contains(&v.as_str())) {
                    let mut known: Vec<&str> =
                        registry().iter().flat_map(|e| e.tags()).copied().collect();
                    known.sort_unstable();
                    known.dedup();
                    return Err(format!("unknown tag {v:?}; known: {}", known.join(" ")));
                }
                cli.tags.push(v);
            }
            "--check" => cli.check = true,
            "--quiet" => cli.quiet = true,
            "--trace" => {
                let v = next_value(&mut i, "--trace", &raw)?;
                cli.trace_file = Some(v);
            }
            "--metrics" => cli.metrics = true,
            "--help" | "-h" => return Err(String::new()),
            flag if flag.starts_with('-') => {
                return Err(format!("unknown flag {flag:?}"));
            }
            id => match find(id) {
                // Dedup repeats: running an experiment twice would double
                // its wall-clock and put ambiguous entries in the manifest.
                Some(exp) => {
                    if !cli.chosen.iter().any(|e| e.id() == id) {
                        cli.chosen.push(exp);
                    }
                }
                None => {
                    let ids: Vec<&str> = registry().iter().map(|e| e.id()).collect();
                    return Err(format!(
                        "unknown experiment {id:?}; known: {}",
                        ids.join(" ")
                    ));
                }
            },
        }
        i += 1;
    }
    // Resolve the budget after parsing so flag order never matters: an
    // explicit --trials always wins over --quick's reduced budget (only
    // the trial count differs between quick() and full()).
    cli.cfg.trials = explicit_trials.unwrap_or(if quick {
        RunConfig::quick().trials
    } else {
        cli.cfg.trials
    });
    if cli.chosen.is_empty() {
        cli.chosen = registry().to_vec();
    }
    if !cli.tags.is_empty() {
        cli.chosen.retain(|e| matches_tags(*e, &cli.tags));
        if cli.chosen.is_empty() {
            return Err(format!(
                "no selected experiment carries all of: {}",
                cli.tags.join(", ")
            ));
        }
    }
    Ok(cli)
}

fn print_registry(tags: &[String]) {
    let mut table =
        rft_analysis::report::Table::new("experiment registry", &["id", "title", "tags"]);
    for exp in registry() {
        if !matches_tags(*exp, tags) {
            continue;
        }
        table.row(&[
            exp.id().to_string(),
            exp.title().to_string(),
            exp.tags().join(", "),
        ]);
    }
    table.print();
}

fn git_describe() -> Option<String> {
    let out = std::process::Command::new("git")
        .args(["describe", "--always", "--dirty"])
        .output()
        .ok()?;
    if !out.status.success() {
        return None;
    }
    let s = String::from_utf8(out.stdout).ok()?;
    let s = s.trim();
    (!s.is_empty()).then(|| s.to_string())
}

/// `repro replay JOB.json [--threads N] [--stream]` — reproduce a served
/// job offline and print the canonical final line (plus, with
/// `--stream`, every interval line the daemon streamed).
fn run_replay(args: &[String]) -> ExitCode {
    use rft_analysis::experiment::CompileCache;
    use rft_analysis::job::{run_job_streaming, JobControl, JobRecord, JobSpec};

    let mut file: Option<&str> = None;
    let mut threads = 1usize;
    let mut stream = false;
    let mut i = 0usize;
    while i < args.len() {
        match args[i].as_str() {
            "--threads" => {
                i += 1;
                match args.get(i).and_then(|v| v.parse().ok()) {
                    Some(n) if n >= 1 => threads = n,
                    _ => {
                        eprintln!("repro replay: --threads needs a positive integer");
                        return ExitCode::from(2);
                    }
                }
            }
            "--stream" => stream = true,
            "--help" | "-h" => {
                println!("usage: repro replay JOB.json [--threads N] [--stream]");
                return ExitCode::SUCCESS;
            }
            flag if flag.starts_with('-') && flag != "-" => {
                eprintln!("repro replay: unknown flag {flag:?}");
                return ExitCode::from(2);
            }
            path if file.is_none() => file = Some(path),
            extra => {
                eprintln!("repro replay: unexpected argument {extra:?}");
                return ExitCode::from(2);
            }
        }
        i += 1;
    }
    let Some(path) = file else {
        eprintln!("usage: repro replay JOB.json [--threads N] [--stream]");
        return ExitCode::from(2);
    };
    let body = if path == "-" {
        use std::io::Read;
        let mut s = String::new();
        match std::io::stdin().read_to_string(&mut s) {
            Ok(_) => s,
            Err(e) => {
                eprintln!("repro replay: cannot read stdin: {e}");
                return ExitCode::FAILURE;
            }
        }
    } else {
        match std::fs::read_to_string(path) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("repro replay: cannot read {path:?}: {e}");
                return ExitCode::FAILURE;
            }
        }
    };
    // Accept the same shapes the daemon does: a full record, a bare
    // spec, or — for one-command replays — a served final line (whose
    // embedded record is extracted through the same deserializer).
    let record = match serde_json::from_str::<rft_analysis::job::FinalUpdate>(&body) {
        Ok(final_update) => final_update.record,
        Err(_) => match serde_json::from_str::<JobRecord>(&body) {
            Ok(r) => r,
            Err(_) => match serde_json::from_str::<JobSpec>(&body) {
                Ok(spec) => JobRecord::new(spec),
                Err(e) => {
                    eprintln!("repro replay: {path:?} is not a job record: {e}");
                    return ExitCode::FAILURE;
                }
            },
        },
    };
    let cache = CompileCache::new();
    let obs = Collector::disabled();
    let outcome = run_job_streaming(
        &cache,
        &obs,
        &record,
        || threads,
        |update| {
            if stream {
                match serde_json::to_string(update) {
                    Ok(line) => println!("{line}"),
                    Err(e) => eprintln!("repro replay: cannot serialize update: {e}"),
                }
            }
            JobControl::Continue
        },
    );
    match outcome {
        Ok(Some(final_update)) => {
            println!("{}", final_update.to_line());
            ExitCode::SUCCESS
        }
        Ok(None) => unreachable!("offline replay is never cancelled"),
        Err(msg) => {
            eprintln!("repro replay: invalid job: {msg}");
            ExitCode::FAILURE
        }
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("replay") {
        return run_replay(&argv[1..]);
    }
    let cli = match parse_args(argv.into_iter()) {
        Ok(cli) => cli,
        Err(msg) if msg.is_empty() => {
            println!("{}", usage());
            return ExitCode::SUCCESS;
        }
        Err(msg) => {
            eprintln!("repro: {msg}");
            eprintln!("{}", usage());
            return ExitCode::from(2);
        }
    };
    if cli.list {
        print_registry(&cli.tags);
        return ExitCode::SUCCESS;
    }
    // Probe the output directory before spending minutes of Monte-Carlo:
    // a typo'd or unwritable --json path should fail in milliseconds.
    if let Some(dir) = &cli.json_dir {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("repro: cannot create --json directory {dir:?}: {e}");
            return ExitCode::FAILURE;
        }
    }

    println!("Reversible Fault-Tolerant Logic — reproduction harness");
    println!(
        "config: trials = {}, seed = {}, threads = {}, backend = {}, estimator = {}{}\n",
        cli.cfg.trials,
        cli.cfg.seed,
        cli.cfg.threads,
        cli.cfg.backend,
        cli.cfg.estimator,
        match cli.cfg.target_rel_error {
            Some(t) => format!(", adaptive rel-error target = {t}"),
            None => String::new(),
        }
    );

    // One live collector feeds every observability surface; when none is
    // requested the runner gets a disabled handle and collection costs a
    // single branch per call site. Either way the Monte-Carlo results are
    // identical — instrumentation never touches an RNG stream. Only a
    // trace keeps the span events.
    let opts = RunnerOptions {
        obs: if cli.trace_file.is_some() {
            Collector::tracing()
        } else if cli.metrics {
            Collector::new()
        } else {
            Collector::disabled()
        },
        progress: !cli.quiet,
        attach_resources: cli.metrics,
    };

    let start = Instant::now();
    let runs = run_experiments_with(&cli.chosen, &cli.cfg, &opts);
    let total = start.elapsed();

    let mut all_passed = true;
    for run in &runs {
        println!("━━━ experiment: {} ━━━", run.id);
        run.report.print();
        println!("({} done in {:.1?})\n", run.id, run.wall);
        for check in run.report.failed_checks() {
            all_passed = false;
            eprintln!(
                "repro: CHECK FAILED [{}] {}: got {}, want {}",
                run.id, check.name, check.got, check.want
            );
        }
    }
    println!(
        "{} experiment(s) in {:.1?} (threads = {})",
        runs.len(),
        total,
        cli.cfg.threads
    );

    if cli.metrics {
        println!();
        print!("{}", opts.obs.snapshot().render_table());
    }
    if let Some(file) = &cli.trace_file {
        if let Err(e) = std::fs::write(file, opts.obs.trace_json()) {
            eprintln!("repro: cannot write trace {file:?}: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!(
            "[repro] wrote {} trace span(s) to {file}",
            opts.obs.span_events().len()
        );
    }

    if let Some(dir) = &cli.json_dir {
        let mut manifest = RunManifest::new(cli.cfg, git_describe(), total);
        for run in &runs {
            let file = format!("{}.json", run.id);
            let path = std::path::Path::new(dir).join(&file);
            if let Err(e) = std::fs::write(&path, run.report.to_json()) {
                eprintln!("repro: cannot write {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
            manifest.push(run, file);
        }
        let path = std::path::Path::new(dir).join("manifest.json");
        if let Err(e) = std::fs::write(&path, manifest.to_json()) {
            eprintln!("repro: cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        println!("wrote {} report(s) + manifest.json to {dir}/", runs.len());
    }

    if cli.check && !all_passed {
        eprintln!("repro: some self-checks failed");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
