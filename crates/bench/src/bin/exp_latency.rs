fn main() -> std::process::ExitCode {
    layercake_bench::latency::report().emit()
}
