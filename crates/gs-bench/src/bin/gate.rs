//! `gate <name> [--deny] [flags]` — runs one gs-bench gate (see `gs_bench::gate`).

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    std::process::exit(gs_bench::gate::main(&args));
}
