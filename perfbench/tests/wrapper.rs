//! The tracing wrapper must be invisible to training: wrapped and
//! unwrapped runs give byte-identical weights, losses and `NetStats`, on
//! the in-process and the Unix-socket backends, at 1 and 2 tensor threads.

use gtv::{GtvConfig, GtvTrainer};
use gtv_data::{Dataset, Table};
use gtv_perfbench::trace::Recorder;
use gtv_perfbench::traced::TracedTransport;
use gtv_perfbench::train::Fleet;
use gtv_vfl::{Endpoint, NetStats, Network, PartitionPlan, SocketTransport, Transport};

const CLIENTS: usize = 3;
const ROUNDS: usize = 3;

fn shards() -> Vec<Table> {
    let table = Dataset::Loan.generate(80, 3);
    let groups = PartitionPlan::Even { n_clients: CLIENTS }
        .column_groups(table.n_cols(), None, None)
        .expect("valid partition");
    table.vertical_split(&groups)
}

/// Weights, losses and traffic after `ROUNDS` rounds plus a synthesis.
type Run = (Vec<u8>, Vec<f32>, Vec<f32>, NetStats, String);

fn train<T: Transport>(transport: T, threads: usize) -> Run {
    let config = GtvConfig { threads, ..GtvConfig::smoke() };
    let mut trainer =
        GtvTrainer::with_transport(shards(), config, transport).expect("trainer set-up");
    for _ in 0..ROUNDS {
        trainer.train_round().expect("round");
    }
    let sample = trainer.synthesize(50, 9).expect("synthesize");
    (
        trainer.save_weights().to_bytes(),
        trainer.history().d_loss.clone(),
        trainer.history().g_loss.clone(),
        trainer.network_stats(),
        gtv_data::to_csv_string(&sample),
    )
}

fn uds_fleet(tag: &str) -> Fleet {
    std::fs::create_dir_all("out").expect("create out/");
    let endpoints = (0..CLIENTS)
        .map(|i| Endpoint::Unix(format!("out/wrap-{}-{tag}-{i}.sock", std::process::id()).into()))
        .collect();
    Fleet::spawn(endpoints).expect("bind unix party nodes")
}

fn uds_run(tag: &str, threads: usize, wrapped: bool) -> Run {
    let fleet = uds_fleet(tag);
    let transport =
        SocketTransport::connect(CLIENTS, fleet.endpoints.clone()).expect("dial party nodes");
    let run = if wrapped {
        train(TracedTransport::new(transport, Recorder::new()), threads)
    } else {
        train(transport, threads)
    };
    fleet.shutdown().expect("party nodes stop cleanly");
    run
}

#[test]
fn wrapped_training_is_byte_identical_on_inproc_and_uds() {
    let mut runs = Vec::new();
    for threads in [1, 2] {
        let plain = train(Network::new(CLIENTS), threads);
        let spans = Recorder::new();
        let wrapped = train(TracedTransport::new(Network::new(CLIENTS), spans.clone()), threads);
        // The backend's own fan-out and fan-in ran, not the trait defaults.
        assert!(spans.count("vfl.send_all") > 0, "send_all was delegated");
        assert!(spans.count("vfl.gather") > 0, "gather was delegated");
        assert!(plain == wrapped, "in-process, {threads} thread(s): wrapping changed the run");

        let uds_plain = uds_run(&format!("p{threads}"), threads, false);
        let uds_wrapped = uds_run(&format!("w{threads}"), threads, true);
        assert!(
            uds_plain == uds_wrapped,
            "unix sockets, {threads} thread(s): wrapping changed the run"
        );
        assert!(plain == uds_plain, "{threads} thread(s): backends disagree");
        runs.push(plain);
    }
    assert!(runs[0] == runs[1], "thread count changed the run");
}
