(** The traced replay: each statement is split into its public calls,
    each call is recorded as a span (name, start, end, parent, statement
    id), and the system's own counters are read around the same calls.
    Spans are kept in memory and written out when the run ends. *)

open Sb_storage
open Harness

type t = {
  names : (string, int) Hashtbl.t;
  mutable name_of : string array;
  mutable sp_name : int array;
  mutable sp_start : int array;
  mutable sp_stop : int array;
  mutable sp_parent : int array;
  mutable sp_stmt : int array;
  mutable n : int;
  mutable current : int;  (** open span, or -1 *)
  mutable stmt : int;
  (* counters read around the calls *)
  mutable execs : int;
  mutable scanned : int;
  mutable batches : int;
  mutable output : int;
  mutable probes : int;
  mutable logical : int;
  mutable physical : int;
  mutable evictions : int;
  mutable writes : int;
  mutable appends : int;
  mutable flushes : int;
  mutable flushed_records : int;
  mutable alloc_words : float;
  mutable major_collections : int;
}

let create () =
  {
    names = Hashtbl.create 16;
    name_of = [||];
    sp_name = Array.make 65536 0;
    sp_start = Array.make 65536 0;
    sp_stop = Array.make 65536 0;
    sp_parent = Array.make 65536 0;
    sp_stmt = Array.make 65536 0;
    n = 0;
    current = -1;
    stmt = 0;
    execs = 0;
    scanned = 0;
    batches = 0;
    output = 0;
    probes = 0;
    logical = 0;
    physical = 0;
    evictions = 0;
    writes = 0;
    appends = 0;
    flushes = 0;
    flushed_records = 0;
    alloc_words = 0.0;
    major_collections = 0;
  }

let intern t name =
  match Hashtbl.find_opt t.names name with
  | Some i -> i
  | None ->
    let i = Array.length t.name_of in
    Hashtbl.add t.names name i;
    t.name_of <- Array.append t.name_of [| name |];
    i

let grow a = Array.append a (Array.make (Array.length a) 0)

let span t name f =
  if t.n = Array.length t.sp_name then begin
    t.sp_name <- grow t.sp_name;
    t.sp_start <- grow t.sp_start;
    t.sp_stop <- grow t.sp_stop;
    t.sp_parent <- grow t.sp_parent;
    t.sp_stmt <- grow t.sp_stmt
  end;
  let id = t.n in
  t.n <- id + 1;
  t.sp_name.(id) <- intern t name;
  t.sp_parent.(id) <- t.current;
  t.sp_stmt.(id) <- t.stmt;
  let parent = t.current in
  t.current <- id;
  t.sp_start.(id) <- now_ns ();
  let finish () =
    t.sp_stop.(id) <- now_ns ();
    t.current <- parent
  in
  match f () with
  | v -> finish (); v
  | exception e -> finish (); raise e

(* ------------------------------------------------------------------ *)
(* Statements split into their public calls                            *)
(* ------------------------------------------------------------------ *)

let exec t db f =
  let rows = span t "qes.exec" f in
  let c = Starburst.counters db in
  t.execs <- t.execs + 1;
  t.scanned <- t.scanned + c.Sb_qes.Exec.c_scanned;
  t.batches <- t.batches + c.Sb_qes.Exec.c_batches;
  t.output <- t.output + c.Sb_qes.Exec.c_output;
  t.probes <- t.probes + c.Sb_qes.Exec.c_index_probes;
  rows

(* parse → QGM → rewrite → STAR optimization → refinement *)
let compile t db text =
  let wq = span t "hydrogen.parse" (fun () -> Starburst.parse db text) in
  let g = span t "qgm.build" (fun () -> Starburst.build_qgm db wq) in
  ignore (span t "rewrite.rewrite" (fun () -> Starburst.rewrite db g) : _);
  let plan = span t "optimizer.optimize" (fun () -> Starburst.optimize db g) in
  let plan = span t "optimizer.refine" (fun () -> Starburst.refine_plan db plan) in
  let columns =
    List.map (fun hc -> hc.Starburst.Qgm.hc_name) (Starburst.Qgm.top_box g).Starburst.Qgm.b_head
  in
  { Starburst.prep_text = text; prep_columns = columns; prep_plan = plan }

let run_op t db op =
  match op with
  | Run_read text ->
    let p = compile t db text in
    Rows (exec t db (fun () -> Starburst.run_plan db p.Starburst.prep_plan))
  | Cached_read (hosts, text) ->
    bind db hosts;
    let cache = db.Starburst.plan_cache in
    let epoch = Catalog.epoch db.Starburst.catalog in
    let key, found =
      span t "plan_cache.lookup" (fun () ->
          let key = Starburst.plan_cache_key db text in
          (key, Starburst.Plan_cache.find cache ~epoch key))
    in
    let p =
      match found with
      | Some p -> p
      | None ->
        let p = compile t db text in
        Starburst.Plan_cache.add cache ~epoch key p;
        p
    in
    Rows (exec t db (fun () -> Starburst.execute_prepared db p))
  | Prepared_read (hosts, p) ->
    bind db hosts;
    Rows (exec t db (fun () -> Starburst.execute_prepared db p))
  | Write text ->
    let stmt = span t "hydrogen.parse" (fun () -> Sb_hydrogen.Parser.statement text) in
    of_result (span t "dml.exec" (fun () -> Starburst.run_statement db stmt))

(** One traced statement: a [bench.stmt] span around its calls, with
    buffer-pool, GC and (for DML) WAL counters read around it.  The
    counters are read outside the span: [wal_stats] alone walks the
    whole stable log. *)
let execute t db op =
  t.stmt <- t.stmt + 1;
  let wal0 = match op with Write _ -> Some (Starburst.wal_stats db) | _ -> None in
  let pool = Buffer_pool.stats db.Starburst.catalog.Catalog.pool in
  let l0 = pool.Buffer_pool.logical_reads
  and p0 = pool.Buffer_pool.physical_reads
  and e0 = pool.Buffer_pool.evictions in
  let g0 = Gc.quick_stat () in
  let out = span t "bench.stmt" (fun () -> try run_op t db op with exn -> Failed (error_text exn)) in
  let g1 = Gc.quick_stat () in
  let words (g : Gc.stat) = g.Gc.minor_words +. g.Gc.major_words -. g.Gc.promoted_words in
  t.alloc_words <- t.alloc_words +. words g1 -. words g0;
  t.major_collections <- t.major_collections + g1.Gc.major_collections - g0.Gc.major_collections;
  t.logical <- t.logical + pool.Buffer_pool.logical_reads - l0;
  t.physical <- t.physical + pool.Buffer_pool.physical_reads - p0;
  t.evictions <- t.evictions + pool.Buffer_pool.evictions - e0;
  Option.iter
    (fun (w0 : Wal.stats) ->
      let w1 = Starburst.wal_stats db in
      t.writes <- t.writes + 1;
      t.appends <- t.appends + w1.Wal.s_appends - w0.Wal.s_appends;
      t.flushes <- t.flushes + w1.Wal.s_flushes - w0.Wal.s_flushes;
      t.flushed_records <- t.flushed_records + w1.Wal.s_flushed_records - w0.Wal.s_flushed_records)
    wal0;
  out

(* ------------------------------------------------------------------ *)
(* Summaries                                                           *)
(* ------------------------------------------------------------------ *)

(** Per span name: calls and total nanoseconds. *)
let totals t =
  let calls = Array.make (Array.length t.name_of) 0
  and ns = Array.make (Array.length t.name_of) 0 in
  for i = 0 to t.n - 1 do
    let k = t.sp_name.(i) in
    calls.(k) <- calls.(k) + 1;
    ns.(k) <- ns.(k) + t.sp_stop.(i) - t.sp_start.(i)
  done;
  fun name ->
    match Hashtbl.find_opt t.names name with
    | Some k -> (calls.(k), ns.(k))
    | None -> (0, 0)

(** Mean, over statements, of the statement's wall time minus the time
    its direct child spans cover (signed), in nanoseconds. *)
let unattributed_ns t =
  let stmt_name = intern t "bench.stmt" in
  let child = Array.make t.n 0 in
  for i = 0 to t.n - 1 do
    let p = t.sp_parent.(i) in
    if p >= 0 then child.(p) <- child.(p) + t.sp_stop.(i) - t.sp_start.(i)
  done;
  let sum = ref 0 and k = ref 0 in
  for i = 0 to t.n - 1 do
    if t.sp_name.(i) = stmt_name then begin
      sum := !sum + (t.sp_stop.(i) - t.sp_start.(i) - child.(i));
      incr k
    end
  done;
  if !k = 0 then 0.0 else float !sum /. float !k

(** Time covered by the statement spans, in nanoseconds. *)
let statement_ns t = snd (totals t "bench.stmt")

(** Writes every span as one JSON line. *)
let write_spans t path =
  let oc = open_out path in
  for i = 0 to t.n - 1 do
    Printf.fprintf oc
      "{\"id\":%d,\"parent\":%d,\"stmt\":%d,\"name\":\"%s\",\"start_ns\":%d,\"end_ns\":%d}\n"
      i t.sp_parent.(i) t.sp_stmt.(i) t.name_of.(t.sp_name.(i)) t.sp_start.(i)
      t.sp_stop.(i)
  done;
  close_out oc
