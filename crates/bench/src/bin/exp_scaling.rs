fn main() -> std::process::ExitCode {
    layercake_bench::scaling::report().emit()
}
