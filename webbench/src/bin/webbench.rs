//! Timed runs (`--trace 0`): end-to-end metrics, system allocator.

fn main() {
    std::process::exit(webbench::cli::main(false));
}
