//! Runs every table/figure reproduction in sequence — the command behind
//! EXPERIMENTS.md:
//! `cargo run --release -p sf-bench --bin all_figures`

fn main() {
    sf_bench::banner("Table 1");
    println!("{}", scalefold::experiments::table1());
    sf_bench::banner("Figure 3");
    println!("{}", scalefold::experiments::fig3());
    sf_bench::banner("Figure 4");
    println!("{}", scalefold::experiments::fig4(2000));
    sf_bench::banner("Figure 7");
    println!("{}", scalefold::experiments::fig7());
    sf_bench::banner("Figure 8");
    println!("{}", scalefold::experiments::fig8());
    sf_bench::banner("Figures 9 & 10");
    println!("{}", scalefold::experiments::fig9_fig10());
    sf_bench::banner("Figure 11");
    println!("{}", scalefold::experiments::fig11());
    sf_bench::banner("Extension: fine-tuning phase");
    println!("{}", scalefold::experiments::finetune_extension());
    sf_bench::banner("Scalability (headline claim)");
    print!(
        "{}",
        scalefold::experiments::format_scaling(&scalefold::experiments::scaling())
    );
    println!("(Figure 5 uses real threads: run `cargo run -p sf-bench --bin fig5`)");
}
