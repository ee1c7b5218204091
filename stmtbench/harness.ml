(** The measurement harness shared by the three workloads: statements,
    the timed closed loop, latency samples, answer checks, the traced
    replay with its spans and counters, and the JSON result line. *)

open Sb_storage

let now_ns () = Int64.to_int (Sb_obs.Trace.now_ns ())

(* ------------------------------------------------------------------ *)
(* Statements                                                          *)
(* ------------------------------------------------------------------ *)

(** How a statement enters the system.  Every read and write is text or
    host values handed to the public [Starburst] API. *)
type op =
  | Run_read of string  (** [Starburst.run]: compiled every time *)
  | Cached_read of (string * Value.t) list * string
      (** [bind_host] + [cached_query]: through the plan cache *)
  | Prepared_read of (string * Value.t) list * Starburst.prepared
      (** [bind_host] + [execute_prepared]: compiled once at set-up *)
  | Write of string  (** DML through [Starburst.run] *)

type outcome = Rows of Tuple.t list | Affected of int | Failed of string

(** One statement of a round: what to send and how to judge the answer.
    [check] runs after the statement, outside the timed call; for a
    write it also applies the acknowledged change to the model. *)
type stmt = { op : op; label : string; check : outcome -> (unit, string) result }

let is_write s = match s.op with Write _ -> true | _ -> false

(** A workload: set-up text, a model of what it generated, and its
    statement stream in whole rounds. *)
module type WORKLOAD = sig
  type model

  val name : string

  (** Set-up statements (DDL, bulk INSERTs, CREATE INDEX, ANALYZE) and
      the model of the rows they load, both made from [seed]. *)
  val generate : seed:int -> string list * model

  (** Compiles what the workload prepares once, after set-up. *)
  val attach : model -> Starburst.t -> unit

  (** Round [r] of the statement stream.  Literal values come from the
      model's generator, so the stream is a function of the seed. *)
  val round : model -> int -> stmt list

  (** A write that commits and changes nothing (used to trigger the
      explicit checkpoint before the recovery segment). *)
  val noop_write : string

  (** How many times a run sets up, and how many times it recovers. *)
  val setups : int

  val recoveries : int

  (** Rounds run between the checkpoint and the crash. *)
  val recovery_rounds : int

  (** Every table with its expected full contents. *)
  val contents : model -> (string * Tuple.t list) list
end

(* ------------------------------------------------------------------ *)
(* Generating inputs                                                   *)
(* ------------------------------------------------------------------ *)

let int i = Value.Int i

(** A price with two decimals, as the engine reads its literal. *)
let money cents = Value.Float (float_of_string (Printf.sprintf "%d.%02d" (cents / 100) (cents mod 100)))

let row_text r =
  "(" ^ String.concat ", " (Array.to_list (Array.map Value.to_literal r)) ^ ")"

(** Bulk INSERT statements of 500 rows each. *)
let bulk table rows =
  let rec go acc = function
    | [] -> List.rev acc
    | rows ->
      let chunk = List.filteri (fun i _ -> i < 500) rows
      and rest = List.filteri (fun i _ -> i >= 500) rows in
      let text =
        Printf.sprintf "INSERT INTO %s VALUES %s" table
          (String.concat ", " (List.map row_text chunk))
      in
      go (text :: acc) rest
  in
  go [] rows

(* Fisher-Yates, in place *)
let permute rng a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

(** [n] values [0 .. k-1], each [n / k] times (give or take one), in a
    seeded random order: category sizes stay the same for every seed, so
    a query's cost depends on its literals' class, not on the seed. *)
let balanced rng n k = permute rng (Array.init n (fun i -> i mod k))

let shuffle rng l = Array.to_list (permute rng (Array.of_list l))

(* ------------------------------------------------------------------ *)
(* Comparing answers                                                   *)
(* ------------------------------------------------------------------ *)

let value_close a b =
  match (a, b) with
  | Value.Float x, Value.Float y ->
    x = y || Float.abs (x -. y) <= 1e-9 *. Float.max 1.0 (Float.abs x +. Float.abs y)
  | _ -> Value.equal a b

let row_close a b =
  Array.length a = Array.length b && Array.for_all2 value_close a b

let show_rows rows =
  let n = List.length rows in
  let shown = List.filteri (fun i _ -> i < 4) rows in
  Printf.sprintf "%d row(s) [%s%s]" n
    (String.concat "; " (List.map Tuple.to_string shown))
    (if n > 4 then "; ..." else "")

(** Compares a result with the expected rows: positionally when the
    query fixes the order, as bags otherwise (floats within 1e-9). *)
let same_rows ?(ordered = false) ~expected actual =
  let sort = List.sort Tuple.compare in
  let e, a = if ordered then (expected, actual) else (sort expected, sort actual) in
  if List.length e = List.length a && List.for_all2 row_close e a then Ok ()
  else Error (Printf.sprintf "expected %s, got %s" (show_rows e) (show_rows a))

let expect_rows ?ordered expected = function
  | Rows rows -> same_rows ?ordered ~expected rows
  | Affected n -> Error (Printf.sprintf "expected rows, got %d affected" n)
  | Failed m -> Error ("failed: " ^ m)

(** A write's check: the affected count must match, and only then does
    [apply] record the acknowledged change in the model. *)
let expect_affected n apply = function
  | Affected m when m = n -> apply (); Ok ()
  | Affected m -> Error (Printf.sprintf "expected %d affected, got %d" n m)
  | Rows _ -> Error "expected an affected count, got rows"
  | Failed m -> Error ("failed: " ^ m)

(** The one failure the benchmark keeps: constant selects. *)
let constant_select_error = "constant selects unsupported"

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let expect_constant_select_failure expected = function
  | Failed m when contains m constant_select_error -> Ok ()
  | Failed m -> Error ("failed with an unexpected error: " ^ m)
  | Rows rows -> same_rows ~expected rows
  | Affected n -> Error (Printf.sprintf "expected rows, got %d affected" n)

(* ------------------------------------------------------------------ *)
(* Untraced execution                                                  *)
(* ------------------------------------------------------------------ *)

let bind db hosts = List.iter (fun (h, v) -> Starburst.bind_host db h v) hosts

let of_result = function
  | Starburst.Rows { rows; _ } -> Rows rows
  | Starburst.Affected n -> Affected n
  | Starburst.Message m -> Failed ("unexpected message: " ^ m)

let error_text = function
  | Starburst.Error e -> Sb_resil.Err.to_string e
  | exn -> Printexc.to_string exn

let execute db op =
  try
    match op with
    | Run_read text | Write text -> of_result (Starburst.run db text)
    | Cached_read (hosts, text) ->
      bind db hosts;
      Rows (Starburst.cached_query db text)
    | Prepared_read (hosts, p) ->
      bind db hosts;
      Rows (Starburst.execute_prepared db p)
  with exn -> Failed (error_text exn)

(* ------------------------------------------------------------------ *)
(* Samples                                                             *)
(* ------------------------------------------------------------------ *)

(** A growable float buffer. *)
module Samples = struct
  type t = { mutable a : float array; mutable n : int }

  let create () = { a = Array.make 4096 0.0; n = 0 }

  let add t v =
    if t.n = Array.length t.a then begin
      let a = Array.make (2 * t.n) 0.0 in
      Array.blit t.a 0 a 0 t.n;
      t.a <- a
    end;
    t.a.(t.n) <- v;
    t.n <- t.n + 1

  let sorted t =
    let s = Array.sub t.a 0 t.n in
    Array.sort Float.compare s;
    s
end

(** Linear interpolation between closest ranks (numpy's default). *)
let percentile sorted q =
  let n = Array.length sorted in
  if n = 0 then 0.0
  else
    let pos = q *. float (n - 1) in
    let lo = int_of_float pos in
    let hi = min (n - 1) (lo + 1) in
    let frac = pos -. float lo in
    sorted.(lo) +. (frac *. (sorted.(hi) -. sorted.(lo)))

let mean l = List.fold_left ( +. ) 0.0 l /. float (List.length l)

let median l =
  let a = Array.of_list l in
  Array.sort Float.compare a;
  percentile a 0.5

(* ------------------------------------------------------------------ *)
(* Answer digests                                                      *)
(* ------------------------------------------------------------------ *)

(* Order-insensitive per statement (bag hash), order-sensitive across
   the stream: the traced replay must return the same answers. *)
let digest_outcome acc = function
  | Rows rows ->
    let h = List.fold_left (fun h r -> h + Hashtbl.hash (Tuple.to_string r)) 0 rows in
    Hashtbl.hash (acc, 1, List.length rows, h)
  | Affected n -> Hashtbl.hash (acc, 2, n)
  | Failed _ -> Hashtbl.hash (acc, 3)

(* ------------------------------------------------------------------ *)
(* The run state                                                       *)
(* ------------------------------------------------------------------ *)

type tally = {
  mutable attempted : int;
  mutable failed : int;  (** statements that failed as expected *)
  mutable wrong : int;  (** answers that disagreed with the model *)
  mutable measured_ns : int;  (** time inside statement calls *)
  mutable digest : int;
  reads : Samples.t;  (** ms *)
  writes : Samples.t;  (** ms *)
  by_label : (string, Samples.t) Hashtbl.t;  (** ms, per statement class *)
}

let fresh_tally () =
  {
    attempted = 0;
    failed = 0;
    wrong = 0;
    measured_ns = 0;
    digest = 0;
    reads = Samples.create ();
    writes = Samples.create ();
    by_label = Hashtbl.create 16;
  }

let report_wrong = ref 0

let judge tally (s : stmt) out =
  (match out with Failed _ -> tally.failed <- tally.failed + 1 | _ -> ());
  tally.digest <- digest_outcome tally.digest out;
  match s.check out with
  | Ok () -> ()
  | Error msg ->
    tally.wrong <- tally.wrong + 1;
    if !report_wrong < 20 then begin
      incr report_wrong;
      Printf.eprintf "WRONG [%s] %s\n%!" s.label msg
    end

(** Runs the set-up statements on a fresh database; returns it with the
    seconds the statements took. *)
let setup script =
  let db = Starburst.create () in
  let t0 = now_ns () in
  List.iter (fun text -> ignore (Starburst.run db text)) script;
  (db, float (now_ns () - t0) *. 1e-9)
