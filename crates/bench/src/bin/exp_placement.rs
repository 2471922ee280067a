fn main() -> std::process::ExitCode {
    layercake_bench::placement::report().emit()
}
