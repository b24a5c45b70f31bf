fn main() -> std::process::ExitCode {
    covirt_perfbench::cli::main(std::env::args().skip(1).collect())
}
