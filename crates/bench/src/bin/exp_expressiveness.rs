fn main() -> std::process::ExitCode {
    layercake_bench::expressiveness::report().emit()
}
