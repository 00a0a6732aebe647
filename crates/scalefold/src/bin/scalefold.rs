//! `scalefold` — command-line front end for the reproduction.
//!
//! ```text
//! scalefold train [STEPS]            real CPU training on the tiny model
//! scalefold simulate [DAP]           simulated cluster step time at DAP-n
//! scalefold memory [DAP]             per-rank memory footprint at DAP-n
//! scalefold faults [STEPS]           fault-injection drill on real training
//! scalefold tradeoff [STEPS]         checkpoint-interval x failure-rate grid
//! scalefold trace-report [PATH]      phase table from a trace (no PATH: A/B drill)
//! ```
//!
//! The global `--threads N` flag (anywhere on the command line) pins the
//! `sf-tensor` parallel CPU backend to `N` compute threads; without it the
//! backend honors `SF_THREADS`, then the machine's core count.
//!
//! The global `--trace PATH` flag enables the `sf-trace` runtime tracer
//! for whatever command runs and writes a Chrome `trace_event` JSON file
//! (loadable in `chrome://tracing` / Perfetto) on exit.
//!
//! Every attention site runs the one fused attention kernel; there is no
//! switch to a composed op chain.
//!
//! The paper's tables and figures (the Figure-8 ladder among them) and the
//! CPU kernel baseline are `sf-bench` binaries (`cargo run --release -p
//! sf-bench --bin all_figures`, `--bin fig8`, `--bin kernels`).
//!
//! Each command takes at most one positional argument; anything left over
//! after the global flags are stripped is an error (exit 1).
//!
//! All I/O failures propagate to a nonzero exit code instead of panicking.

use scalefold::{LoaderKind, OptimizationSet, Trainer, TrainerConfig};
use sf_cluster::{ClusterSim, FailureModel};
use sf_faults::{corrupt, FaultPlan};
use sf_model::ModelConfig;
use sf_opgraph::memory;
use sf_trace::report::PhaseReport;
use sf_trace::Trace;
use std::error::Error;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Duration;

fn main() -> ExitCode {
    let GlobalFlags {
        args,
        trace_path,
        dap,
    } = match extract_global_flags(std::env::args().skip(1).collect()) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("scalefold: error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let cmd = args.first().map(String::as_str).unwrap_or("help");
    // At most one positional argument per command: a leftover (say, a
    // removed flag) fails loudly instead of being silently ignored.
    let takes_arg = !matches!(cmd, "help" | "--help" | "-h");
    if let Some(extra) = args.get(if takes_arg { 2 } else { 1 }) {
        eprintln!("scalefold {cmd}: error: unexpected argument '{extra}'");
        return ExitCode::FAILURE;
    }
    let result = match cmd {
        "train" => parse_num(&args, 1, 20).and_then(|n| train(n, dap)),
        "simulate" => parse_num(&args, 1, 8).and_then(|n| simulate(n as usize)),
        "memory" => parse_num(&args, 1, 8).and_then(|n| memory_report(n as usize)),
        "faults" => parse_num(&args, 1, 6).and_then(|n| fault_drill(n, dap)),
        "tradeoff" => parse_num(&args, 1, 2000).and_then(tradeoff),
        "trace-report" => trace_report(args.get(1).map(String::as_str)),
        "help" | "--help" | "-h" => help(),
        other => {
            let _ = help();
            eprintln!("\nscalefold: error: unknown command '{other}'");
            return ExitCode::FAILURE;
        }
    };
    let result = result.and_then(|()| match &trace_path {
        Some(path) => write_trace(path),
        None => Ok(()),
    });
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("scalefold {cmd}: error: {e}");
            ExitCode::FAILURE
        }
    }
}

type CliResult = Result<(), Box<dyn Error>>;

/// The command line with its global flags stripped.
struct GlobalFlags {
    /// The command and its arguments.
    args: Vec<String>,
    /// `--trace PATH`: where the trace is written on exit.
    trace_path: Option<PathBuf>,
    /// `--dap N`: the Dynamic Axial Parallelism degree for the real
    /// training commands (`1` = off, the default; axial divisibility is
    /// validated where the trainer config is known).
    dap: usize,
}

/// Strips the global flags from `args`, one flag at a time in this order:
/// `--threads N` pins the compute pool; `--trace PATH` is created up front
/// (so a typo fails before, not after, a long run) and enables the
/// `sf-trace` runtime tracer; `--dap N` sets the DAP degree.
fn extract_global_flags(args: Vec<String>) -> Result<GlobalFlags, Box<dyn Error>> {
    let args = strip_flag(args, "--threads", "a thread count", |v| {
        sf_tensor::pool::set_num_threads(parse_positive(&v, "--threads", "thread count")?);
        Ok(())
    })?;
    let mut trace_path = None;
    let args = strip_flag(args, "--trace", "an output path", |v| {
        std::fs::File::create(&v).map_err(|e| format!("cannot write trace file '{v}': {e}"))?;
        sf_trace::enable();
        trace_path = Some(PathBuf::from(v));
        Ok(())
    })?;
    let mut dap = 1;
    let args = strip_flag(args, "--dap", "a rank count", |v| {
        dap = parse_positive(&v, "--dap", "DAP rank count")?;
        Ok(())
    })?;
    Ok(GlobalFlags {
        args,
        trace_path,
        dap,
    })
}

/// Removes every `name V` / `name=V` from `args`, handing each value to
/// `apply` in command-line order; returns the remaining arguments. A
/// trailing `name` with no value is an error saying it expects `what`.
fn strip_flag(
    args: Vec<String>,
    name: &str,
    what: &str,
    mut apply: impl FnMut(String) -> CliResult,
) -> Result<Vec<String>, Box<dyn Error>> {
    let mut rest = Vec::with_capacity(args.len());
    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        if a == name {
            apply(it.next().ok_or_else(|| format!("{name} expects {what}"))?)?;
        } else if let Some(v) = a.strip_prefix(name).and_then(|v| v.strip_prefix('=')) {
            apply(v.to_string())?;
        } else {
            rest.push(a);
        }
    }
    Ok(rest)
}

/// Parses a flag's positive integer value (`what` names it in the error).
fn parse_positive(v: &str, name: &str, what: &str) -> Result<usize, Box<dyn Error>> {
    match v.parse() {
        Ok(0) => Err(format!("{name} expects a positive integer").into()),
        Ok(n) => Ok(n),
        Err(_) => Err(format!("invalid {what} '{v}'").into()),
    }
}

/// Drains the global trace collector into `path` as Chrome `trace_event`
/// JSON and prints a one-line summary of what was captured.
fn write_trace(path: &Path) -> CliResult {
    let trace = sf_trace::take();
    if trace.dropped > 0 {
        eprintln!(
            "scalefold: warning: {} trace event(s) dropped (ring buffers full)",
            trace.dropped
        );
    }
    let events = trace.events.len();
    std::fs::write(path, trace.to_chrome_json())
        .map_err(|e| format!("cannot write trace file '{}': {e}", path.display()))?;
    println!(
        "wrote {events} trace event(s) to {} (load in chrome://tracing or ui.perfetto.dev)",
        path.display()
    );
    Ok(())
}

fn parse_num(args: &[String], idx: usize, default: u64) -> Result<u64, Box<dyn Error>> {
    match args.get(idx) {
        None => Ok(default),
        Some(s) => s
            .parse()
            .map_err(|_| format!("invalid numeric argument '{s}'").into()),
    }
}

fn help() -> CliResult {
    println!("scalefold — a Rust reproduction of 'ScaleFold: Reducing AlphaFold");
    println!("Initial Training Time to 10 Hours' (DAC 2024)\n");
    println!("usage: scalefold <command> [arg]\n");
    println!("  train [STEPS=20]    real CPU training of the tiny AlphaFold");
    println!("  simulate [DAP=8]    simulated H100 cluster step time at DAP-n");
    println!("  memory [DAP=8]      per-rank memory footprint at DAP-n");
    println!("  faults [STEPS=6]    inject worker panics, NaN grads, and a");
    println!("                      corrupt checkpoint into a real run");
    println!("  tradeoff [STEPS]    expected run time vs checkpoint interval");
    println!("                      and failure rate (default 2000 steps)");
    println!("  trace-report [PATH] phase-breakdown table of a trace file;");
    println!("                      without PATH, run the blocking-vs-non-");
    println!("                      blocking loader data-wait drill");
    println!("\nglobal flags:");
    println!("  --threads N         pin the compute backend to N threads");
    println!("                      (default: SF_THREADS, then core count)");
    println!("  --trace PATH        record a runtime trace of the command and");
    println!("                      write Chrome trace_event JSON to PATH");
    println!("  --dap N             shard Evoformer activations across N axial");
    println!("                      ranks via the real ring collectives (train");
    println!("                      and faults; the model's n_seq and n_res");
    println!("                      must divide evenly by N)");
    Ok(())
}

/// `trace-report PATH`: load a Chrome-format trace (real or simulated) and
/// print its per-step phase table. `trace-report` with no path runs the
/// paper's data-wait A/B on the real trainer instead: the same straggler
/// sample through the blocking and the non-blocking loader.
fn trace_report(path: Option<&str>) -> CliResult {
    match path {
        Some(p) => {
            let text = std::fs::read_to_string(p)
                .map_err(|e| format!("cannot read trace file '{p}': {e}"))?;
            let trace = Trace::from_chrome_json(&text).map_err(|e| format!("'{p}': {e}"))?;
            let report = PhaseReport::from_trace(&trace);
            if report.steps.is_empty() {
                println!(
                    "{} event(s), no training steps recorded (nothing to break down)",
                    trace.events.len()
                );
            } else {
                println!("{}", report.to_table());
            }
            Ok(())
        }
        None => loader_drill(),
    }
}

/// The data-wait A/B (paper §3.2 / Figure 5, measured on the real CPU
/// trainer): inject one straggler sample, train twice — once through the
/// strict-order blocking loader, once through the non-blocking pipeline —
/// and compare the `data_wait` share of step time from the traces.
fn loader_drill() -> CliResult {
    const STEPS: u64 = 6;
    const SLOW_SAMPLE: usize = 1;
    let delay = Duration::from_millis(150);
    println!("data-wait drill: {STEPS} steps, sample #{SLOW_SAMPLE} takes an extra {delay:?}\n");
    let mut shares = Vec::new();
    for (label, kind) in [
        (
            "blocking loader (strict sampler order)",
            LoaderKind::Blocking,
        ),
        ("non-blocking pipeline (ScaleFold)", LoaderKind::NonBlocking),
    ] {
        let was_enabled = sf_trace::is_enabled();
        sf_trace::reset();
        sf_trace::enable();
        let mut cfg = TrainerConfig::tiny();
        cfg.model.evoformer_blocks = 1;
        cfg.model.extra_msa_blocks = 0;
        cfg.dataset_len = 8;
        cfg.loader = kind;
        let plan = FaultPlan::none().with_slow_sample(SLOW_SAMPLE, delay);
        let mut trainer = Trainer::with_faults(cfg, plan);
        let reports = trainer.train(STEPS);
        let trace = sf_trace::take();
        if !was_enabled {
            sf_trace::disable();
        }
        let report = PhaseReport::from_trace(&trace);
        println!("=== {label} ===");
        println!("{}", report.to_table());
        println!(
            "steps run: {}   data-wait share: {:.2}%\n",
            reports.len(),
            report.data_wait_share() * 100.0
        );
        shares.push((label, report.data_wait_share()));
    }
    let blocking = shares[0].1;
    let nonblocking = shares[1].1;
    println!(
        "summary: blocking {:.2}% vs non-blocking {:.2}% of step time spent waiting for data",
        blocking * 100.0,
        nonblocking * 100.0
    );
    if nonblocking < 0.02 && blocking > nonblocking {
        println!("the non-blocking pipeline drives data wait toward zero.");
        Ok(())
    } else {
        Err(format!(
            "drill expectation failed: non-blocking data-wait share {:.2}% \
             (want < 2% and below the blocking loader's {:.2}%)",
            nonblocking * 100.0,
            blocking * 100.0
        )
        .into())
    }
}

fn train(steps: u64, dap: usize) -> CliResult {
    let mut cfg = TrainerConfig::tiny();
    cfg.model.evoformer_blocks = 1;
    cfg.model.extra_msa_blocks = 0;
    // Larger proteins than the test-scale default: big enough that the
    // pair-stack GEMMs cross the compute backend's dispatch threshold, so a
    // traced run (`--trace`) records the parallel regions too.
    cfg.model.n_res = 32;
    cfg.dap = dap;
    scalefold::DapGroup::validate_config(&cfg.model, dap)?;
    if dap > 1 {
        println!("training the tiny AlphaFold for {steps} steps (DAP-{dap})...");
    } else {
        println!("training the tiny AlphaFold for {steps} steps...");
    }
    let mut trainer = Trainer::new(cfg);
    for r in trainer.train(steps) {
        println!(
            "  step {:>4}  loss {:>8.4}  lDDT-Ca {:.3}  lr {:.2e}",
            r.step, r.loss, r.lddt, r.lr
        );
    }
    let comm = trainer.dap_comm();
    if dap > 1 {
        println!(
            "DAP-{dap} comm: {} all-gather + {} all-to-all elements over {} collectives",
            comm.all_gather_elements,
            comm.all_to_all_elements,
            comm.gathers + comm.switches
        );
    }
    println!("eval (SWA weights): lDDT-Ca {:.3}", trainer.evaluate(3));
    Ok(())
}

fn simulate(dap: usize) -> CliResult {
    let cfg = ModelConfig::paper();
    println!("simulating H100 cluster step time (DP 128 x DAP-{dap})...");
    for (label, opts) in [
        ("reference", OptimizationSet::none()),
        ("ScaleFold", OptimizationSet::scalefold_dap(dap.max(1))),
    ] {
        let t = opts.step_s(&cfg, sf_gpusim::DeviceSpec::h100(), 128);
        println!("  {label:<10} {t:>7.3} s/step");
    }
    Ok(())
}

fn memory_report(dap: usize) -> CliResult {
    let cfg = ModelConfig::paper();
    let dev = sf_gpusim::DeviceSpec::h100();
    println!("per-rank memory at paper scale, DAP-{dap} (H100, 80 GiB):");
    for (label, ckpt, bf16) in [
        ("fp32, no checkpointing", false, false),
        ("bf16, no checkpointing", false, true),
        ("bf16, checkpointing", true, true),
    ] {
        let f = memory::estimate(&cfg, dap.max(1), ckpt, bf16);
        println!(
            "  {label:<26} {:>7.1} GiB  ({})",
            f.total_gib(),
            if f.fits(&dev) { "fits" } else { "DOES NOT FIT" }
        );
    }
    Ok(())
}

/// End-to-end fault drill on the *real* trainer: a permanently poisoned
/// sample, a NaN-gradient step, and a bit-flipped checkpoint — the run
/// must survive all three and resume from the newest valid checkpoint.
fn fault_drill(steps: u64, dap: usize) -> CliResult {
    let steps = steps.max(3);
    let mut cfg = TrainerConfig::tiny();
    cfg.model.evoformer_blocks = 1;
    cfg.model.extra_msa_blocks = 0;
    cfg.dataset_len = 6;
    cfg.dap = dap;
    scalefold::DapGroup::validate_config(&cfg.model, dap)?;

    let plan = FaultPlan::none().with_worker_panic(1).with_nan_grad(1);
    println!("fault drill: {steps} steps with an always-panicking sample #1");
    println!("and NaN gradients injected at optimizer step 1...\n");
    let mut trainer = Trainer::with_faults(cfg.clone(), plan);
    for r in trainer.train(steps) {
        println!(
            "  step {:>4}  loss {:>8.4}  lDDT-Ca {:.3}  {}",
            r.step,
            r.loss,
            r.lddt,
            if r.skipped {
                "SKIPPED (non-finite grads)"
            } else {
                "ok"
            }
        );
    }

    // Checkpoint twice, corrupt the newer file, and prove recovery falls
    // back to the older one.
    let dir = std::env::temp_dir().join(format!("scalefold_fault_drill_{}", std::process::id()));
    std::fs::create_dir_all(&dir)?;
    let older = trainer.save_checkpoint_step(&dir)?;
    let more = trainer.train(1);
    let newer = trainer.save_checkpoint_step(&dir)?;
    let len = corrupt::file_len(&newer)?;
    corrupt::flip_bit(&newer, (len / 2) as usize, 3)?;
    println!(
        "\ncheckpoints: {} (valid), {} (bit-flipped)",
        older.display(),
        newer.display()
    );

    let mut recovered = Trainer::new(cfg);
    let summary = recovered
        .resume_latest(&dir)?
        .ok_or("no checkpoint found in drill directory")?;
    println!(
        "resume_latest: restored {} (step {:?}), {} corrupt file(s) skipped",
        summary.path.display(),
        summary.step,
        summary.skipped.len()
    );
    assert_eq!(summary.path, older, "must fall back past the corrupt file");
    let _ = more;

    println!("\nrecovery log:");
    for e in trainer
        .recovery_log()
        .iter()
        .chain(recovered.recovery_log())
    {
        println!("  - {e}");
    }
    println!("\ninjected faults that fired:");
    for e in trainer.injector().log() {
        println!("  - {e}");
    }
    std::fs::remove_dir_all(&dir)?;
    println!("\ndrill passed: training survived every injected fault.");
    Ok(())
}

/// Expected time-to-convergence versus checkpoint interval and per-rank
/// failure rate, for the full ScaleFold set on its simulated cluster
/// (H100, DP 128 x DAP-8). From 40 steps on, the step is `simulate 8`'s.
fn tradeoff(steps: u64) -> CliResult {
    let steps = steps.max(10);
    let opts = OptimizationSet::scalefold();
    let graph = scalefold::build_graph(&ModelConfig::paper(), &opts);
    let sim = ClusterSim::new(&graph, opts.cluster(sf_gpusim::DeviceSpec::h100(), 128));
    let fm = FailureModel::default();
    let intervals = [50u64, 200, 1000];
    let year_s = 365.25 * 24.0 * 3600.0;
    let mtbfs = [100.0 * year_s, 30.0 * year_s, 5.0 * year_s];
    let grid = sim.convergence_tradeoff(steps, &intervals, &mtbfs, &fm);
    println!(
        "expected wall-clock of a {steps}-step run on {} ranks at {:.3} s/step",
        sim.config().total_ranks(),
        grid.first().ok_or("empty trade-off grid")?.estimate.step_s
    );
    println!("(columns: per-rank MTBF; rows: checkpoint every k steps)\n");
    print!("{:>12}", "k \\ mtbf");
    for &m in &mtbfs {
        print!("{:>14.0}y", m / year_s);
    }
    println!();
    for (i, &interval) in intervals.iter().enumerate() {
        print!("{interval:>12}");
        for (j, _) in mtbfs.iter().enumerate() {
            let est = &grid[i * mtbfs.len() + j].estimate;
            print!("{:>14.1}h", est.expected_total_s / 3600.0);
        }
        println!();
    }
    let best = grid
        .iter()
        .min_by(|a, b| {
            a.estimate
                .expected_total_s
                .total_cmp(&b.estimate.expected_total_s)
        })
        .ok_or("empty trade-off grid")?;
    println!(
        "\nbest cell: checkpoint every {} steps at {:.0}-year MTBF",
        best.ckpt_interval,
        best.rank_mtbf_s / year_s
    );
    println!(
        "  expected {:.1} h = compute {:.1} h + checkpoints {:.2} h + failures {:.2} h",
        best.estimate.expected_total_s / 3600.0,
        best.estimate.compute_s / 3600.0,
        best.estimate.checkpoint_overhead_s / 3600.0,
        best.estimate.failure_overhead_s / 3600.0
    );
    Ok(())
}
