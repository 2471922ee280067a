fn main() -> std::process::ExitCode {
    layercake_bench::chaos::report().emit()
}
