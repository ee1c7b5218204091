(** [adhoc]: the paper's inventory/quotations schema with small tables,
    well inside the buffer pool.  Every query is fresh text — random
    literals over templates of 2- to 5-way joins, IN and EXISTS
    subqueries, GROUP BY and UNION — run through [Starburst.run], so it
    compiles every time.  Each template has a naive nested-loop
    evaluator over the generated rows. *)

open Sb_storage
open Harness

let name = "adhoc"
let n_inventory = 200
let n_quotations = 400
let n_suppliers = 30
let types = [| "CPU"; "DISK"; "RAM"; "BUS"; "PSU" |]
let n_cities = 6
let n_ratings = 5
let setups = 200
let recoveries = 200
let recovery_rounds = 100

(* one round: 21 reads and 5 writes.  The 4- and 5-way joins are the
   dearest 35% of the reads, so read p90 falls among the 5-way joins;
   read p50 falls where the 3-way joins and the subqueries overlap.
   Deletes, the dearest writes, are two fifths of the writes, so write
   p90 falls among them.  The constant select fails every time today
   (one in 26 statements). *)
let reads =
  [ ("join2", 3); ("group", 2); ("union", 2); ("in", 2); ("exists", 2); ("join3", 2); ("join4", 3);
    ("join5", 4); ("constant", 1) ]

let replacements = 2  (* an INSERT and a DELETE each *)
let updates = 1

type model = {
  rng : Random.State.t;
  inventory : Tuple.t array;  (** partno, onhand_qty, type; by partno *)
  quotations : (int, Tuple.t) Hashtbl.t;  (** qid, partno, price, order_qty, supplier *)
  suppliers : Tuple.t array;  (** supplier, city, rating *)
  doomed : int Queue.t;  (** quotation ids, oldest first: the next to delete *)
  mutable next_qid : int;
}

(* every part has two quotations and every supplier the same share;
   a new quotation takes over the part and supplier of the one it
   replaces, so the balance holds for the whole run *)
let new_quotation m ~partno ~supplier =
  let r = m.rng in
  let qid = m.next_qid in
  m.next_qid <- qid + 1;
  Queue.push qid m.doomed;
  [| int qid; int partno; money (100 + Random.State.int r 19_900); int (1 + Random.State.int r 300);
     int supplier |]

let generate ~seed =
  let r = Random.State.make [| seed; 0x03 |] in
  let kind = balanced r n_inventory (Array.length types) in
  let inventory =
    Array.init n_inventory (fun k -> [| int k; int (Random.State.int r 500); Value.String types.(kind.(k)) |])
  in
  let city = balanced r n_suppliers n_cities and rating = balanced r n_suppliers n_ratings in
  let suppliers =
    Array.init n_suppliers (fun k ->
        [| int k; Value.String (Printf.sprintf "city%d" city.(k)); int rating.(k) |])
  in
  let m =
    { rng = r; inventory; suppliers; quotations = Hashtbl.create 1024; doomed = Queue.create ();
      next_qid = 0 }
  in
  let part = balanced r n_quotations n_inventory and supplier = balanced r n_quotations n_suppliers in
  let quotations =
    List.init n_quotations (fun k -> new_quotation m ~partno:part.(k) ~supplier:supplier.(k))
  in
  List.iter (fun q -> Hashtbl.replace m.quotations (Value.as_int q.(0)) q) quotations;
  let script =
    [ "CREATE TABLE inventory (partno INT NOT NULL UNIQUE, onhand_qty INT, type STRING)";
      "CREATE TABLE quotations (qid INT NOT NULL UNIQUE, partno INT NOT NULL, price FLOAT, \
       order_qty INT, supplier INT)";
      "CREATE TABLE suppliers (supplier INT NOT NULL UNIQUE, city STRING, rating INT)" ]
    @ bulk "inventory" (Array.to_list inventory)
    @ bulk "quotations" quotations
    @ bulk "suppliers" (Array.to_list suppliers)
    @ [ "CREATE INDEX quotations_part ON quotations (partno)"; "ANALYZE" ]
  in
  (script, m)

let attach _ _ = ()
let noop_write = "DELETE FROM suppliers WHERE supplier = -1"

(* ------------------------------------------------------------------ *)
(* Nested-loop evaluators                                              *)
(* ------------------------------------------------------------------ *)

let ( .%() ) (row : Tuple.t) i = Value.as_int row.(i)
let price (q : Tuple.t) = Value.as_float q.(2)

(* for each x in xs, for each result of [f x] *)
let each xs f = List.concat_map f xs
let where c rows = if c then rows () else []

let eval m template (a : int) (b : int) : Tuple.t list =
  let inv = Array.to_list m.inventory and sup = Array.to_list m.suppliers in
  let quo = Hashtbl.fold (fun _ q acc -> q :: acc) m.quotations [] in
  let limit = float a +. 0.5 in
  match template with
  | "join2" ->
    each inv (fun i ->
        where (Value.as_string i.(2) = types.(b)) (fun () ->
            each quo (fun q ->
                where (i.%(0) = q.%(1) && price q < limit) (fun () -> [ [| i.(0); q.(2) |] ]))))
  | "join3" ->
    each inv (fun i ->
        where (i.%(1) > a) (fun () ->
            each quo (fun q ->
                where (i.%(0) = q.%(1)) (fun () ->
                    each sup (fun s ->
                        where (q.%(4) = s.%(0) && s.%(2) = b) (fun () -> [ [| i.(0); q.(2); s.(1) |] ]))))))
  | "join4" ->
    let city = Printf.sprintf "city%d" b in
    each sup (fun s ->
        where (Value.as_string s.(1) = city) (fun () ->
            each quo (fun r ->
                where (r.%(4) = s.%(0)) (fun () ->
                    each quo (fun q ->
                        where (q.%(1) = r.%(1) && price q < price r) (fun () ->
                            each inv (fun i ->
                                where (i.%(0) = q.%(1)) (fun () -> [ [| i.(0); q.(4); r.(4) |] ]))))))))
  | "join5" ->
    each inv (fun i ->
        where (i.%(1) < a) (fun () ->
            each quo (fun q ->
                where (i.%(0) = q.%(1)) (fun () ->
                    each sup (fun s ->
                        where (q.%(4) = s.%(0) && s.%(2) = b) (fun () ->
                            each quo (fun r ->
                                where (q.%(1) = r.%(1)) (fun () ->
                                    each sup (fun t ->
                                        where (r.%(4) = t.%(0) && t.%(2) > s.%(2)) (fun () ->
                                            [ [| i.(2); q.(2); s.(1); t.(1) |] ]))))))))))
  | "in" ->
    each quo (fun q ->
        where
          (price q < limit
          && List.exists (fun i -> Value.as_string i.(2) = types.(b) && i.%(0) = q.%(1)) inv)
          (fun () -> [ [| q.(0); q.(2) |] ]))
  | "exists" ->
    each quo (fun q ->
        where
          (q.%(4) = b && List.exists (fun i -> i.%(0) = q.%(1) && i.%(1) < q.%(3) + a) inv)
          (fun () -> [ [| q.(0) |] ]))
  | "group" ->
    let h = Hashtbl.create 8 in
    List.iter
      (fun q ->
        List.iter
          (fun i ->
            if q.%(1) = i.%(0) then
              let t = Value.as_string i.(2) in
              let n, lo = Option.value ~default:(0, Float.infinity) (Hashtbl.find_opt h t) in
              Hashtbl.replace h t (n + 1, Float.min lo (price q)))
          inv)
      (List.filter (fun q -> q.%(3) > a) quo);
    Hashtbl.fold (fun t (n, lo) acc -> [| Value.String t; int n; Value.Float lo |] :: acc) h []
  | "union" ->
    let parts =
      List.filter_map (fun i -> if i.%(1) > a then Some (i.%(0)) else None) inv
      @ List.filter_map (fun q -> if price q < float b +. 0.5 then Some (q.%(1)) else None) quo
    in
    List.sort_uniq compare parts |> List.map (fun p -> [| int p |])
  | _ (* constant *) ->
    each inv (fun i -> where (i.%(1) > b) (fun () -> [ [| i.(0); int a |] ]))

let text template a b =
  match template with
  | "join2" ->
    Printf.sprintf
      "SELECT i.partno, q.price FROM inventory i, quotations q WHERE i.partno = q.partno AND i.type \
       = '%s' AND q.price < %d.5"
      types.(b) a
  | "join3" ->
    Printf.sprintf
      "SELECT i.partno, q.price, s.city FROM inventory i, quotations q, suppliers s WHERE i.partno = \
       q.partno AND q.supplier = s.supplier AND s.rating = %d AND i.onhand_qty > %d"
      b a
  | "join4" ->
    Printf.sprintf
      "SELECT i.partno, q.supplier, r.supplier FROM inventory i, quotations q, quotations r, \
       suppliers s WHERE i.partno = q.partno AND q.partno = r.partno AND r.supplier = s.supplier AND \
       q.price < r.price AND s.city = 'city%d'"
      b
  | "join5" ->
    Printf.sprintf
      "SELECT i.type, q.price, s.city, t.city FROM inventory i, quotations q, suppliers s, quotations \
       r, suppliers t WHERE i.partno = q.partno AND q.supplier = s.supplier AND q.partno = r.partno \
       AND r.supplier = t.supplier AND s.rating = %d AND t.rating > s.rating AND i.onhand_qty < %d"
      b a
  | "in" ->
    Printf.sprintf
      "SELECT q.qid, q.price FROM quotations q WHERE q.partno IN (SELECT partno FROM inventory WHERE \
       type = '%s') AND q.price < %d.5"
      types.(b) a
  | "exists" ->
    Printf.sprintf
      "SELECT q.qid FROM quotations q WHERE q.supplier = %d AND EXISTS (SELECT * FROM inventory i \
       WHERE i.partno = q.partno AND i.onhand_qty < q.order_qty + %d)"
      b a
  | "group" ->
    Printf.sprintf
      "SELECT i.type, count(*), min(q.price) FROM quotations q, inventory i WHERE q.partno = \
       i.partno AND q.order_qty > %d GROUP BY i.type"
      a
  | "union" ->
    Printf.sprintf
      "SELECT partno FROM inventory WHERE onhand_qty > %d UNION SELECT partno FROM quotations WHERE \
       price < %d.5"
      a b
  | _ (* constant *) ->
    Printf.sprintf "SELECT i.partno, (SELECT %d) FROM inventory i WHERE i.onhand_qty > %d" a b

(* literal ranges per template: [a] and [b] as [text] reads them *)
let literals m template =
  let r = m.rng in
  let pick n = Random.State.int r n in
  match template with
  | "join2" | "in" -> (pick 200, pick 5)
  | "join3" -> (pick 500, pick n_ratings)
  | "join4" -> (0, pick n_cities)
  | "join5" -> (100 + pick 400, pick (n_ratings - 1))
  | "exists" -> (pick 100, pick n_suppliers)
  | "group" -> (pick 300, 0)
  | "union" -> (200 + pick 300, pick 100)
  | _ -> (pick 1000, pick 500)

let read m template =
  let a, b = literals m template in
  let check =
    if template = "constant" then fun out -> expect_constant_select_failure (eval m template a b) out
    else fun out -> expect_rows (eval m template a b) out
  in
  { op = Run_read (text template a b); label = template; check }

(* the quotation [qid] is replaced by a new one for the same part and
   supplier: an INSERT now, a DELETE of [qid] later in the round *)
let insert m qid =
  let old = Hashtbl.find m.quotations qid in
  let q = new_quotation m ~partno:old.%(1) ~supplier:old.%(4) in
  { op = Write ("INSERT INTO quotations VALUES " ^ row_text q); label = "insert";
    check = expect_affected 1 (fun () -> Hashtbl.replace m.quotations q.%(0) q) }

let delete m qid =
  { op = Write (Printf.sprintf "DELETE FROM quotations WHERE qid = %d" qid); label = "delete";
    check = expect_affected 1 (fun () -> Hashtbl.remove m.quotations qid) }

let update m =
  let p = Random.State.int m.rng n_inventory and v = Random.State.int m.rng 500 in
  { op = Write (Printf.sprintf "UPDATE inventory SET onhand_qty = %d WHERE partno = %d" v p);
    label = "update"; check = expect_affected 1 (fun () -> m.inventory.(p).(1) <- int v) }

let round m _ =
  let rs = List.concat_map (fun (t, k) -> List.init k (fun _ -> read m t)) reads in
  let doomed = List.init replacements (fun _ -> Queue.pop m.doomed) in
  let ws =
    List.map (insert m) doomed @ List.init updates (fun _ -> update m) @ List.map (delete m) doomed
  in
  shuffle m.rng (rs @ ws)

let contents m =
  [ ("inventory", Array.to_list m.inventory);
    ("quotations", Hashtbl.fold (fun _ q acc -> q :: acc) m.quotations []);
    ("suppliers", Array.to_list m.suppliers) ]
