fn main() -> std::process::ExitCode {
    layercake_bench::overload::report().emit()
}
