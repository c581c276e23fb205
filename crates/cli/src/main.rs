//! Thin shell around the testable [`arc_cli`] library.

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match arc_cli::parse(&args) {
        Ok(cmd) => arc_cli::run(cmd),
        Err(e) => {
            eprintln!("arc-cli: {e}");
            eprintln!("{}", arc_cli::USAGE);
            2
        }
    };
    std::process::exit(code);
}
