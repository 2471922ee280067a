fn main() -> std::process::ExitCode {
    layercake_bench::arch_compare::report().emit()
}
