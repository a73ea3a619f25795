//! `perfbench`: the benchmark with the system allocator (end-to-end runs).

fn main() {
    std::process::exit(onesched_perfbench::main());
}
