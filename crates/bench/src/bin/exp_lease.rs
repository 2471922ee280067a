fn main() -> std::process::ExitCode {
    layercake_bench::lease::report().emit()
}
