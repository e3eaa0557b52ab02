//! The `mbxq-bench` binary; everything lives in the library so the
//! smoke test can read the same metric tables.

fn main() {
    mbxq_bench_e2e::cli_main();
}
