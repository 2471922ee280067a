fn main() -> std::process::ExitCode {
    layercake_bench::fig7_mr::report().emit()
}
