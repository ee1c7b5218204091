(** The whole-statement benchmark: statement text in, rows out.

    [stmtbench --workload oltp|analytic|adhoc --seed N --seconds S
    --trace 0|1] sets the workload up, runs its statement stream in
    whole rounds, single session and closed loop, until the statement
    calls have taken [S] seconds, checks every answer against the
    workload's own model, then crashes and recovers.  With [--trace 0]
    the last line of standard output is a JSON object with the
    end-to-end metrics; with [--trace 1] the same stream is replayed
    split into its public calls and the object holds the per-layer
    metrics (spans are written under [stmtbench/out/]). *)

open Harness

let workloads : (string * (module WORKLOAD)) list =
  [ ("oltp", (module Oltp)); ("analytic", (module Analytic)); ("adhoc", (module Adhoc)) ]

(* Set-up and recovery run [W.setups] and [W.recoveries] times, each on
   a compacted heap: the small workloads' millisecond operations need many
   repeats, and a fixed count keeps the heap history, and so
   [peak_heap_mb], the same from run to run.  Set-up reports the median.
   Recovery reports the mean: on a shared host a millisecond operation
   runs at one of two speeds for seconds at a time, and the median jumps
   between them where the mean moves with the share of time spent in
   each. *)
let repeat n f =
  List.init n (fun k ->
      Gc.compact ();
      f k)

(* ------------------------------------------------------------------ *)
(* Output                                                              *)
(* ------------------------------------------------------------------ *)

let json_number v =
  if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

let print_result ~correct ~attempted ~failed metrics =
  let m =
    String.concat ", "
      (List.map
         (fun (name, unit, v) ->
           Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" name (json_number v) unit)
         metrics)
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed m

let ratio a b = if b = 0.0 then 0.0 else a /. b

let heap_mb () =
  float ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) *. 1e-6

module Run (W : WORKLOAD) = struct
  (* ------------------------------------------------------------------ *)
  (* Phases                                                              *)
  (* ------------------------------------------------------------------ *)

  (** The timed phase: whole rounds until the statement calls have taken
      [seconds]; generation and checks happen between calls, outside the
      measured time.  Returns the number of rounds run. *)
  let timed model db tally ~seconds =
    let budget = int_of_float (seconds *. 1e9) in
    let rounds = ref 0 in
    while tally.measured_ns < budget do
      List.iter
        (fun s ->
          let t0 = now_ns () in
          let out = execute db s.op in
          let dt = now_ns () - t0 in
          tally.attempted <- tally.attempted + 1;
          tally.measured_ns <- tally.measured_ns + dt;
          (match out with
          | Failed _ -> ()
          | _ ->
            let ms = float dt *. 1e-6 in
            Samples.add (if is_write s then tally.writes else tally.reads) ms;
            (match Hashtbl.find_opt tally.by_label s.label with
            | Some l -> Samples.add l ms
            | None ->
              let l = Samples.create () in
              Samples.add l ms;
              Hashtbl.add tally.by_label s.label l));
          judge tally s out)
        (W.round model !rounds);
      incr rounds
    done;
    !rounds

  (** The same rounds replayed through the tracer. *)
  let traced model db tally tr ~rounds =
    for r = 0 to rounds - 1 do
      List.iter
        (fun s ->
          tally.attempted <- tally.attempted + 1;
          judge tally s (Tracer.execute tr db s.op))
        (W.round model r)
    done

  let run_text db text = ignore (Starburst.run db text : Starburst.result)

  (** Recovery over a fixed-length log: an explicit checkpoint (one
      commit under [SET wal_checkpoint = 1]), the workload's next
      [segment] rounds (checked, not timed), then [Recovery.crash] and
      [Starburst.recover], [W.recoveries] times over the same stable log.
      The first recovery's contents are compared with the model.
      Returns the recovery times and the first recovery's statistics. *)
  let recover ?(around = fun f -> f ()) model db tally ~first_round ~segment =
    run_text db "SET wal_checkpoint = 1";
    run_text db W.noop_write;
    run_text db "SET wal_checkpoint = 0";
    for r = first_round to first_round + segment - 1 do
      List.iter (fun s -> judge tally s (execute db s.op)) (W.round model r)
    done;
    let stats = ref None in
    let times =
      repeat W.recoveries (fun i ->
          Sb_storage.Recovery.crash ~catalog:db.Starburst.catalog;
          let t0 = now_ns () in
          let st = around (fun () -> Starburst.recover db) in
          let t = float (now_ns () - t0) *. 1e-9 in
          if i = 0 then begin
            stats := Some st;
            List.iter
              (fun (table, expected) ->
                let stmt = { op = Run_read ("SELECT * FROM " ^ table); label = "recovered " ^ table;
                             check = expect_rows expected } in
                judge tally stmt (execute db stmt.op))
              (W.contents model)
          end;
          t)
    in
    (times, Option.get !stats)

  (* ------------------------------------------------------------------ *)
  (* The two modes                                                       *)
  (* ------------------------------------------------------------------ *)

  let end_to_end ~seed ~seconds =
    let script, model = W.generate ~seed in
    let db = ref None in
    let setup_times =
      repeat W.setups (fun _ ->
          db := None;
          let d, s = setup script in
          db := Some d;
          s)
    in
    let db = Option.get !db in
    W.attach model db;
    Gc.compact ();
    let tally = fresh_tally () in
    let rounds = timed model db tally ~seconds in
    let attempted = tally.attempted and failed = tally.failed in
    let completed = attempted - failed in
    let measured = float tally.measured_ns *. 1e-9 in
    let times, _ = recover model db tally ~first_round:rounds ~segment:W.recovery_rounds in
    let reads = Samples.sorted tally.reads and writes = Samples.sorted tally.writes in
    Printf.eprintf "%s seed %d: %d rounds, %d statements (%d reads, %d writes, %d failed) in %.3f s\n%!"
      W.name seed rounds attempted (Array.length reads) (Array.length writes) failed measured;
    (* where each statement class sits: the evidence for the mix *)
    Hashtbl.iter
      (fun label l ->
        let a = Samples.sorted l in
        Printf.eprintf "  %-12s %6d  p10 %8.3f  p50 %8.3f  p90 %8.3f ms\n" label (Array.length a)
          (percentile a 0.1) (percentile a 0.5) (percentile a 0.9))
      tally.by_label;
    print_result ~correct:(tally.wrong = 0) ~attempted ~failed
      [
        ("setup_s", "s", median setup_times);
        ("stmts_per_s", "1/s", float completed /. measured);
        ("read_p50_ms", "ms", percentile reads 0.5);
        ("read_p90_ms", "ms", percentile reads 0.9);
        ("write_p50_ms", "ms", percentile writes 0.5);
        ("write_p90_ms", "ms", percentile writes 0.9);
        ("recover_s", "s", mean times);
        ("peak_heap_mb", "MB", heap_mb ());
      ]

  (** A bare [Table_store.scan] pass over each table: row decode alone. *)
  let scan_ns_per_row db tables =
    let rows = ref 0 and ns = ref 0 in
    List.iter
      (fun name ->
        match Sb_storage.Catalog.find_table db.Starburst.catalog name with
        | None -> ()
        | Some tab ->
          let t0 = now_ns () in
          Seq.iter (fun _ -> incr rows) (Sb_storage.Table_store.scan tab);
          ns := !ns + now_ns () - t0)
      tables;
    ratio (float !ns) (float !rows)

  let per_layer ~seed ~seconds =
    (* the untraced run fixes the statement count and the base time *)
    let script, model = W.generate ~seed in
    let db, _ = setup script in
    W.attach model db;
    Gc.compact ();
    let plain = fresh_tally () in
    let rounds = timed model db plain ~seconds in
    (* the traced replay: same seed, same rounds, fresh database *)
    let script, model = W.generate ~seed in
    Gc.compact ();
    let db, _ = setup script in
    W.attach model db;
    Gc.compact ();
    let tally = fresh_tally () and tr = Tracer.create () in
    let cache0 = Starburst.plan_cache_stats db in
    let rule_totals () =
      List.fold_left (fun (f, a) (_, (f', a')) -> (f + f', a + a')) (0, 0) (Starburst.rule_stats db)
    in
    let fires0, attempts0 = rule_totals () in
    traced model db tally tr ~rounds;
    let traced_digest = tally.digest in
    let fires1, attempts1 = rule_totals () in
    let cache1 = Starburst.plan_cache_stats db in
    let times, st =
      recover ~around:(Tracer.span tr "recovery.recover") model db tally
        ~first_round:rounds ~segment:W.recovery_rounds
    in
    let recover_us = mean times *. 1e6 in
    let tables = List.map fst (W.contents model) in
    let scan = scan_ns_per_row db tables in
    let same_answers = plain.digest = traced_digest in
    if not same_answers then prerr_endline "WRONG traced replay returned different answers";
    let spans_dir = Filename.concat "stmtbench" "out" in
    if not (Sys.file_exists spans_dir) then Sys.mkdir spans_dir 0o755;
    let spans = Filename.concat spans_dir (Printf.sprintf "%s-seed%d.spans.jsonl" W.name seed) in
    Tracer.write_spans tr spans;
    Printf.eprintf "%s seed %d: %d rounds traced, %d spans written to %s\n%!" W.name seed rounds
      tr.Tracer.n spans;
    let total = Tracer.totals tr in
    let mean_us name =
      let calls, ns = total name in
      ratio (float ns *. 1e-3) (float calls)
    in
    let calls name = float (fst (total name)) in
    let stmts = float tr.Tracer.stmt in
    let fi = float in
    let hits = cache1.Starburst.Plan_cache.hits - cache0.Starburst.Plan_cache.hits
    and misses = cache1.Starburst.Plan_cache.misses - cache0.Starburst.Plan_cache.misses in
    let execs = fi tr.Tracer.execs and writes = fi tr.Tracer.writes in
    print_result
      ~correct:(plain.wrong = 0 && tally.wrong = 0 && same_answers)
      ~attempted:plain.attempted ~failed:plain.failed
      [
        ("hydrogen.parse_us", "us", mean_us "hydrogen.parse");
        ("qgm.build_us", "us", mean_us "qgm.build");
        ("rewrite.rewrite_us", "us", mean_us "rewrite.rewrite");
        ("rewrite.rules_fired", "count", ratio (fi (fires1 - fires0)) (calls "rewrite.rewrite"));
        ("rewrite.fire_ratio", "ratio", ratio (fi (fires1 - fires0)) (fi (attempts1 - attempts0)));
        ("optimizer.optimize_us", "us", mean_us "optimizer.optimize");
        ("optimizer.refine_us", "us", mean_us "optimizer.refine");
        ("plan_cache.lookup_us", "us", mean_us "plan_cache.lookup");
        ("plan_cache.hit_ratio", "ratio", ratio (fi hits) (fi (hits + misses)));
        ("qes.exec_us", "us", mean_us "qes.exec");
        ("qes.rows_scanned", "count", ratio (fi tr.Tracer.scanned) execs);
        ("qes.batches", "count", ratio (fi tr.Tracer.batches) execs);
        ("qes.output_rows", "count", ratio (fi tr.Tracer.output) execs);
        ("qes.ns_per_row_scanned", "ns", ratio (fi (snd (total "qes.exec"))) (fi tr.Tracer.scanned));
        ("qes.index_probes", "count", ratio (fi tr.Tracer.probes) execs);
        ("storage.scan_ns_per_row", "ns", scan);
        ("storage.logical_reads", "count", ratio (fi tr.Tracer.logical) stmts);
        ("storage.physical_reads", "count", ratio (fi tr.Tracer.physical) stmts);
        ("storage.evictions", "count", ratio (fi tr.Tracer.evictions) stmts);
        ("storage.pool_hit_ratio", "ratio",
          if tr.Tracer.logical = 0 then 0.0
          else 1.0 -. (fi tr.Tracer.physical /. fi tr.Tracer.logical));
        ("dml.exec_us", "us", mean_us "dml.exec");
        ("wal.appends_per_write", "count", ratio (fi tr.Tracer.appends) writes);
        ("wal.flushes_per_write", "count", ratio (fi tr.Tracer.flushes) writes);
        ("wal.records_per_flush", "count", ratio (fi tr.Tracer.flushed_records) (fi tr.Tracer.flushes));
        ("recovery.records", "count", fi st.Sb_storage.Recovery.r_records);
        ("recovery.redone", "count", fi st.Sb_storage.Recovery.r_redone);
        ("recovery.us_per_record", "us", ratio recover_us (fi st.Sb_storage.Recovery.r_records));
        ("gc.alloc_words_per_stmt", "words", ratio tr.Tracer.alloc_words stmts);
        ("gc.major_collections", "count", fi tr.Tracer.major_collections);
        ("bench.unattributed_us", "us", Tracer.unattributed_ns tr *. 1e-3);
        ("bench.trace_overhead", "ratio", ratio (fi (Tracer.statement_ns tr)) (fi plain.measured_ns));
      ]
end

(* ------------------------------------------------------------------ *)
(* Command line                                                        *)
(* ------------------------------------------------------------------ *)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "oltp|analytic|adhoc");
      ("--seed", Arg.Set_int seed, "N  seed of every generated input");
      ("--seconds", Arg.Set_float seconds, "S  time the statement calls must take");
      ("--trace", Arg.Set_int trace, "0|1  end-to-end (0) or per-layer (1) metrics");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "stmtbench --workload W --seed N --seconds S --trace 0|1";
  match List.assoc_opt !workload workloads with
  | None ->
    prerr_endline "stmtbench: --workload must be oltp, analytic or adhoc";
    exit 2
  | Some (module W) ->
    let module R = Run (W) in
    if !trace = 1 then R.per_layer ~seed:!seed ~seconds:!seconds
    else R.end_to_end ~seed:!seed ~seconds:!seconds
