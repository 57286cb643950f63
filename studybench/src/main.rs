//! `studybench --workload <panel|internet-smoke|chaos|all> --seed <n>
//! --seconds <s> --trace <0|1>`; see the library docs.

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("child") {
        std::process::exit(studybench::run::child_main(&args[1..]));
    }
    match studybench::run::Args::parse(&args) {
        Ok(a) => std::process::exit(studybench::run::run(&a)),
        Err(e) => {
            eprintln!(
                "studybench: {e}\nusage: studybench --workload <panel|internet-smoke|chaos|all> \
                 --seed <n> --seconds <s> --trace <0|1>"
            );
            std::process::exit(2);
        }
    }
}
