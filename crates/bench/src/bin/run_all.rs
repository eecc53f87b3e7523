//! Regenerates every table and figure of the paper's evaluation, writing
//! each report to `results/<id>.txt`. Run with --release.

type Experiment = (&'static str, fn() -> String);

fn main() {
    let experiments: Vec<Experiment> = vec![
        ("Table 2", octopus_bench::experiments::table2::run),
        ("Figure 2", octopus_bench::experiments::fig2::run),
        ("Figure 3", octopus_bench::experiments::fig3::run),
        ("Figure 4", octopus_bench::experiments::fig4::run),
        ("Figure 5", octopus_bench::experiments::fig5::run),
        ("Table 3", octopus_bench::experiments::table3::run),
        ("Figure 6", octopus_bench::experiments::fig6::run),
        ("Figure 7", octopus_bench::experiments::fig7::run),
        ("Ablation", octopus_bench::experiments::ablation::run),
        ("Scalability", octopus_bench::experiments::scalability::run),
        ("Use case: tier-aware scheduling", octopus_bench::experiments::usecase_sched::run),
        ("Parallel I/O window", octopus_bench::experiments::parallel_io::run),
        ("Aggregate I/O scaling", octopus_bench::experiments::aggregate_io::run),
        ("Access-heat separation", octopus_bench::experiments::heat::run),
        ("Auto-tiering vs static", octopus_bench::experiments::autotier::run),
    ];
    for (name, run) in experiments {
        octopus_common::log_info!(target: "bench", "msg=\"experiment starting\" name=\"{name}\"");
        let t = std::time::Instant::now();
        run();
        octopus_common::log_info!(
            target: "bench",
            "msg=\"experiment done\" name=\"{name}\" secs={:.1}",
            t.elapsed().as_secs_f64()
        );
    }
}
