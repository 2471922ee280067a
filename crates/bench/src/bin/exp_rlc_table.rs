fn main() -> std::process::ExitCode {
    layercake_bench::rlc_table::report().emit()
}
