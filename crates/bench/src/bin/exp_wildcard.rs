fn main() -> std::process::ExitCode {
    layercake_bench::wildcard::report().emit()
}
