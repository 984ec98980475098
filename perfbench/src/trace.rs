//! The traced run: spans around the calls into each layer's public
//! functions, kept in memory and written out at the end, and the
//! per-layer metrics folded from them.

use crate::baseline::Baseline;
use crate::host::{ns_since, quantile};
use crate::serve_drain;
use crate::sweep::{self, ModelCounts, SIZES};
use crate::{Report, WorkloadKind};
use clp_compiler::CompileOptions;
use clp_core::CompiledWorkload;
use clp_lint::LintConfig;
use clp_obs::LatencySummary;
use std::fmt::Write as _;
use std::hint::black_box;
use std::time::Instant;

/// Where the spans of a traced run are written, relative to the
/// repository root.
const OUT_DIR: &str = ".bench_out";

/// One timed call. Spans of one cell (or service run) share `id`, and
/// the calls made for it have the cell's span as parent.
struct Span {
    pass: &'static str,
    name: &'static str,
    id: u64,
    parent: Option<usize>,
    cores: usize,
    start_ns: u64,
    end_ns: u64,
}

pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::with_capacity(4096),
        }
    }

    pub fn begin(
        &mut self,
        pass: &'static str,
        name: &'static str,
        id: u64,
        parent: Option<usize>,
        cores: usize,
    ) -> usize {
        self.spans.push(Span {
            pass,
            name,
            id,
            parent,
            cores,
            start_ns: ns_since(self.epoch),
            end_ns: 0,
        });
        self.spans.len() - 1
    }

    pub fn end(&mut self, span: usize) {
        self.spans[span].end_ns = ns_since(self.epoch);
    }

    /// Runs `f` under a child span of `parent` named `name`.
    pub fn span<T>(&mut self, parent: usize, name: &'static str, f: impl FnOnce() -> T) -> T {
        let p = &self.spans[parent];
        let s = self.begin(p.pass, name, p.id, Some(parent), p.cores);
        let r = f();
        self.end(s);
        r
    }

    fn matching<'a>(
        &'a self,
        pass: &'a str,
        name: &'a str,
        cores: Option<usize>,
    ) -> impl Iterator<Item = (usize, &'a Span)> + 'a {
        self.spans.iter().enumerate().filter(move |(_, s)| {
            s.pass == pass && s.name == name && cores.is_none_or(|c| s.cores == c)
        })
    }

    /// Summed duration of the matching spans, in nanoseconds.
    pub fn total_ns(&self, pass: &str, name: &str, cores: Option<usize>) -> u64 {
        self.matching(pass, name, cores)
            .map(|(_, s)| s.end_ns - s.start_ns)
            .sum()
    }

    /// Summed self time of the matching spans: each span's duration minus
    /// the part of it its child spans cover.
    pub fn self_ns(&self, pass: &str, name: &str) -> u64 {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start_ns, s.end_ns));
            }
        }
        self.matching(pass, name, None)
            .map(|(i, s)| {
                let mut iv = std::mem::take(&mut children[i]);
                iv.sort_unstable();
                let mut covered = 0;
                let mut reach = s.start_ns;
                for (a, b) in iv {
                    let (a, b) = (a.max(reach), b.min(s.end_ns));
                    if b > a {
                        covered += b - a;
                        reach = b;
                    }
                }
                (s.end_ns - s.start_ns) - covered
            })
            .sum()
    }

    /// Writes every span as one JSON array (times in nanoseconds since
    /// the run started).
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = String::from("[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{}{{\"span\": {i}, \"pass\": \"{}\", \"name\": \"{}\", \"id\": {}, \
                 \"parent\": {parent}, \"cores\": {}, \"start_ns\": {}, \"end_ns\": {}}}",
                if i == 0 { "" } else { ",\n" },
                s.pass,
                s.name,
                s.id,
                s.cores,
                s.start_ns,
                s.end_ns
            );
        }
        out.push_str("\n]\n");
        std::fs::create_dir_all(path.parent().unwrap_or(std::path::Path::new(".")))?;
        std::fs::write(path, out)
    }
}

/// The sweep set-up split into its public calls: suite construction,
/// then per program the compiler, the golden interpreter, and the lint
/// pass the service runs on a compile-cache miss.
fn traced_setup(tr: &mut Tracer, report: &mut Report) -> Vec<CompiledWorkload> {
    let setup = tr.begin("setup", "setup", 0, None, 0);
    let suite = tr.span(setup, "workloads.build", clp_workloads::suite::all);
    let mut out = Vec::with_capacity(suite.len());
    for w in suite {
        let edge = tr.span(setup, "compiler.compile", || {
            clp_compiler::compile(&w.program, &CompileOptions::default())
        });
        let golden = tr.span(setup, "compiler.golden", || w.try_golden());
        match (edge, golden) {
            (Ok(edge), Ok(golden)) => {
                tr.span(setup, "lint.lint", || {
                    black_box(clp_lint::lint_program(&edge, &LintConfig::default()))
                });
                out.push(CompiledWorkload {
                    workload: w,
                    edge,
                    golden,
                });
            }
            (e, g) => report.mismatch(format!(
                "{}: set-up failed (compile ok: {}, golden ok: {})",
                w.name,
                e.is_ok(),
                g.is_ok()
            )),
        }
    }
    tr.end(setup);
    out
}

/// The traced run. Whatever the workload, it traces the set-up, one pass
/// of `sweep` and one round of service drains, so every per-layer metric
/// exists on every workload.
pub fn measure(kind: WorkloadKind, base: &Baseline, seed: u64) -> Report {
    let mut report = Report::default();
    let mut tr = Tracer::new();
    let suite = traced_setup(&mut tr, &mut report);
    if !report.mismatches.is_empty() {
        return report;
    }
    let pass = WorkloadKind::Sweep.name();
    let cells = sweep::traced_pass(&suite, base, seed, &mut tr, &mut report);
    let serve = serve_drain::traced_round(base, seed, &mut tr, &mut report);

    let s = |ns: u64| ns as f64 / 1e9;
    for (name, span) in [
        ("workloads.build_s", "workloads.build"),
        ("compiler.compile_s", "compiler.compile"),
        ("compiler.golden_s", "compiler.golden"),
        ("lint.lint_s", "lint.lint"),
    ] {
        report.metric(name, "s", s(tr.total_ns("setup", span, None)));
    }

    for (i, &n) in SIZES.iter().enumerate() {
        for (name, span) in [
            ("core.compose_s", "core.compose"),
            ("sim.run_s", "sim.run"),
            ("obs.snapshot_s", "obs.snapshot"),
        ] {
            report.metric(
                format!("{name}.x{n}"),
                "s",
                s(tr.total_ns(pass, span, Some(n))),
            );
        }
        let run_ns = tr.total_ns(pass, "sim.run", Some(n)) as f64;
        let cycles = cells.model[i].cycles as f64;
        report.metric(format!("sim.ns_per_cycle.x{n}"), "ns", run_ns / cycles);
        report.metric(
            format!("sim.ns_per_core_cycle.x{n}"),
            "ns",
            run_ns / (cycles * n as f64),
        );
        report.metric(
            format!("obs.profile_ratio.x{n}"),
            "ratio",
            cells.profiled.ns_per_inst(i) / cells.untraced.ns_per_inst(i),
        );
    }
    report.metric(
        "workloads.verify_s",
        "s",
        s(tr.total_ns(pass, "workloads.verify", None)),
    );
    report.metric(
        "power.model_s",
        "s",
        s(tr.total_ns(pass, "power.model", None)),
    );
    report.metric("cell_ms.p50", "ms", quantile(&cells.untraced.cell_ms, 0.5));
    report.metric("cell_ms.p90", "ms", quantile(&cells.untraced.cell_ms, 0.9));
    report.metric("bench.cell_self_s", "s", s(tr.self_ns(pass, "cell")));
    model_metrics(&cells.model, &mut report);

    let overhead = match kind {
        WorkloadKind::ServeDrain => serve.traced_ns as f64 / serve.untraced_ns as f64 - 1.0,
        WorkloadKind::Sweep => cells.traced_ns as f64 / cells.untraced.total_ns() as f64 - 1.0,
    };
    report.metric("trace.overhead", "ratio", overhead);
    serve_metrics(&tr, &serve, &mut report);

    let path = std::path::PathBuf::from(OUT_DIR).join(format!("spans-{}-{seed}.json", kind.name()));
    match tr.write(&path) {
        Ok(()) => println!("spans written to {}", path.display()),
        Err(e) => eprintln!("perfbench: cannot write {}: {e}", path.display()),
    }
    report
}

fn model_metrics(model: &[ModelCounts; 5], report: &mut Report) {
    for (i, n) in SIZES.iter().enumerate() {
        let m = &model[i];
        for (name, v) in [
            ("model.cycles", m.cycles),
            ("model.insts", m.insts),
            ("model.blocks_committed", m.blocks_committed),
            ("model.blocks_flushed", m.blocks_flushed),
            ("predictor.mispredictions", m.mispredictions),
            ("mem.l1d_misses", m.l1d_misses),
            ("mem.lsq_nacks", m.lsq_nacks),
            ("noc.operand_link_traversals", m.operand_link_traversals),
        ] {
            report.metric(format!("{name}.x{n}"), "count", v as f64);
        }
    }
}

fn serve_metrics(tr: &Tracer, serve: &serve_drain::TracedRound, report: &mut Report) {
    let s = |name: &str| tr.total_ns(WorkloadKind::ServeDrain.name(), name, None) as f64 / 1e9;
    report.metric("serve.generate_s", "s", s("serve.generate"));
    report.metric("serve.drain_s", "s", s("serve.drain"));
    report.metric("serve.report_s", "s", s("serve.report"));
    report.metric(
        "serve.cpu_per_wall",
        "ratio",
        serve.drain_cpu_s / serve.drain_wall_s,
    );

    let sum = |f: &dyn Fn(&clp_serve::ServiceTotals) -> u64| -> u64 {
        serve.results.iter().map(|r| f(&r.totals)).sum()
    };
    let hits = sum(&|t| t.cache_hits);
    let misses = sum(&|t| t.cache_misses);
    let completed = sum(&|t| t.completed);
    let attempts: u64 = serve
        .results
        .iter()
        .flat_map(|r| &r.records)
        .map(|rec| u64::from(rec.attempts))
        .sum();
    let mut latencies: Vec<u64> = serve
        .results
        .iter()
        .flat_map(|r| r.latencies.iter().copied())
        .collect();
    let lat = LatencySummary::from_samples(&mut latencies);
    for (name, v) in [
        ("serve.completed", completed),
        ("serve.shed", sum(&|t| t.rejected_overloaded)),
        ("serve.retries", sum(&|t| t.retries)),
        ("serve.deadline_kills", sum(&|t| t.deadline_kills)),
        ("serve.respawns", sum(&|t| t.respawns)),
        ("serve.cache_hits", hits),
        ("serve.cache_misses", misses),
    ] {
        report.metric(name, "count", v as f64);
    }
    report.metric(
        "serve.cache_hit_ratio",
        "ratio",
        hits as f64 / (hits + misses) as f64,
    );
    report.metric(
        "serve.attempt_success_ratio",
        "ratio",
        completed as f64 / attempts as f64,
    );
    report.metric(
        "serve.latency_p50_ticks",
        "ticks",
        lat.p50.unwrap_or(0) as f64,
    );
    report.metric(
        "serve.latency_p99_ticks",
        "ticks",
        lat.p99.unwrap_or(0) as f64,
    );
    report.metric(
        "serve.drained_at_ticks",
        "ticks",
        sum(&|t| t.drained_at) as f64,
    );
}
