fn main() -> std::process::ExitCode {
    layercake_bench::depth::report().emit()
}
