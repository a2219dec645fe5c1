//! Runners that regenerate every table in the paper's evaluation.
//!
//! Each `tableN` function executes the corresponding experiment on the
//! simulator and returns typed rows carrying both the measured value and
//! the paper's published value, so callers (the `tables` binary, the
//! `ras-bench` benchmark, and the shape-assertion tests) can compare
//! them. `render_tableN` produces the paper-style ASCII table.

pub mod ablations;
pub mod figures;
mod headtohead;
mod rollbacks;
mod table1;
mod table2;
mod table3;
mod table4;
mod verify;

pub use headtohead::{
    head_to_head, render_head_to_head, HeadToHeadRow, HeadToHeadScale, HEAD_TO_HEAD_MECHANISMS,
};
pub use rollbacks::{
    render_rollback_table, rollback_table, RollbackRow, RollbackScale, ROLLBACK_MECHANISMS,
};
pub use table1::{render_table1, table1, Table1Row, Table1Scale, PAPER_TABLE1};
pub use table2::{render_table2, table2, Table2Bench, Table2Row, Table2Scale, PAPER_TABLE2};
pub use table3::{render_table3, table3, Table3App, Table3Row, Table3Scale, PAPER_TABLE3};
pub use table4::{render_table4, table4, Table4Row, Table4Scale, PAPER_TABLE4};
pub use verify::{verify_reproduction, Claim, Verification, VerifyScale};

/// Runs every experiment at full scale and renders all four tables.
pub fn render_all() -> String {
    let mut out = String::new();
    out.push_str(&render_table1(&table1(Table1Scale::default())));
    out.push('\n');
    out.push_str(&render_table2(&table2(&Table2Scale::default())));
    out.push('\n');
    out.push_str(&render_table3(&table3(&Table3Scale::default())));
    out.push('\n');
    out.push_str(&render_table4(&table4(Table4Scale::default())));
    out
}
