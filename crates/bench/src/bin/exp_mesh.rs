fn main() -> std::process::ExitCode {
    layercake_bench::mesh::report().emit()
}
