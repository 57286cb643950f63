//! The sweep binary: `ipv6web-sweep run|emit-spec|worker …`.

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    std::process::exit(ipv6web_sweep::cli::cli_main(&args));
}
