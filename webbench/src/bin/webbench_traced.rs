//! Traced runs (`--trace 1`): per-layer metrics, with the per-thread
//! counting allocator installed.

#[global_allocator]
static ALLOC: webbench::alloc::CountingAlloc = webbench::alloc::CountingAlloc;

fn main() {
    std::process::exit(webbench::cli::main(true));
}
