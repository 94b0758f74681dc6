//! `perfbench` — see `README.md` next to `Cargo.toml`.

#[global_allocator]
static ALLOC: perfbench::alloc::Counting = perfbench::alloc::Counting;

fn main() -> std::process::ExitCode {
    perfbench::cli(std::env::args().skip(1).collect())
}
