//! `perfbench-traced`: the benchmark with the counting allocator
//! registered, so in-process layer spans can attribute allocations.

#[global_allocator]
static ALLOC: onesched_prof::CountingAlloc = onesched_prof::CountingAlloc::new();

fn main() {
    std::process::exit(onesched_perfbench::main());
}
