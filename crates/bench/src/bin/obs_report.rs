//! Unified observability report (E17) — see [`fa_bench::obs_report`].

fn main() {
    fa_bench::reject_args("obs_report");
    fa_bench::obs_report::run_report();
}
