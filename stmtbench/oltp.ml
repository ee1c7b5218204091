(** [oltp]: a keyed item table that fits the buffer pool plus a growing
    orders table.  Most statements are point reads by key through the
    plan cache with a host variable; the rest are two-table joins,
    single-row INSERTs and key UPDATEs through [Starburst.run].  The
    model holds every generated row and every acknowledged write. *)

open Sb_storage
open Harness

let name = "oltp"
let n_items = 10_000
let n_orders = 5_000

(* one round: 40 point reads, 10 joins, 4 inserts, 2 updates.  Joins
   are a fifth of the reads, so read p50 falls among the point reads and
   p90 among the joins; inserts are two thirds of the writes, so write
   p50 falls among the inserts and p90 among the updates *)
let item_reads = 30
let order_reads = 10
let joins = 10
let inserts = 4
let updates = 2
let setups = 15
let recoveries = 50
let recovery_rounds = 30

type model = {
  rng : Random.State.t;
  items : Tuple.t array;  (** by ikey; stock is updated in place *)
  orders : (int, Tuple.t) Hashtbl.t;  (** by okey *)
  mutable next_okey : int;
}

let new_order m =
  let okey = m.next_okey in
  m.next_okey <- okey + 1;
  [| int okey; int (Random.State.int m.rng n_items); int (1 + Random.State.int m.rng 9);
     int (Random.State.int m.rng 1000) |]

let generate ~seed =
  let rng = Random.State.make [| seed; 0x01 |] in
  let items =
    Array.init n_items (fun k ->
        [| int k; Value.String (Printf.sprintf "item%05d" (Random.State.int rng 100_000));
           money (100 + Random.State.int rng 99_900); int (Random.State.int rng 1000);
           int (Random.State.int rng 50) |])
  in
  let m = { rng; items; orders = Hashtbl.create 16_384; next_okey = 0 } in
  let orders = List.init n_orders (fun _ -> new_order m) in
  List.iter (fun o -> Hashtbl.replace m.orders (Value.as_int o.(0)) o) orders;
  let script =
    [ "CREATE TABLE items (ikey INT NOT NULL UNIQUE, name STRING, price FLOAT, stock INT, cat INT)";
      "CREATE TABLE orders (okey INT NOT NULL UNIQUE, ikey INT NOT NULL, qty INT, cust INT)" ]
    @ bulk "items" (Array.to_list items)
    @ bulk "orders" orders
    @ [ "CREATE INDEX items_key ON items (ikey)"; "CREATE INDEX orders_key ON orders (okey)";
        "ANALYZE" ]
  in
  (script, m)

let attach _ _ = ()
let noop_write = "DELETE FROM orders WHERE okey = -1"

let item_read m =
  let k = Random.State.int m.rng n_items in
  {
    op = Cached_read ([ ("k", int k) ], "SELECT name, price, stock FROM items WHERE ikey = :k");
    label = "item read";
    check = (fun out -> let i = m.items.(k) in expect_rows [ [| i.(1); i.(2); i.(3) |] ] out);
  }

let order_read m ~known =
  let o = Random.State.int m.rng known in
  {
    op = Cached_read ([ ("o", int o) ], "SELECT ikey, qty, cust FROM orders WHERE okey = :o");
    label = "order read";
    check =
      (fun out ->
        let r = Hashtbl.find m.orders o in
        expect_rows [ [| r.(1); r.(2); r.(3) |] ] out);
  }

let join m ~known =
  let o = Random.State.int m.rng known in
  {
    op =
      Run_read
        (Printf.sprintf
           "SELECT o.okey, o.qty, i.name, i.price FROM orders o, items i WHERE o.okey = %d AND \
            o.ikey = i.ikey"
           o);
    label = "join";
    check =
      (fun out ->
        let r = Hashtbl.find m.orders o in
        let i = m.items.(Value.as_int r.(1)) in
        expect_rows [ [| r.(0); r.(2); i.(1); i.(2) |] ] out);
  }

let insert m =
  let o = new_order m in
  {
    op = Write ("INSERT INTO orders VALUES " ^ row_text o);
    label = "insert";
    check = expect_affected 1 (fun () -> Hashtbl.replace m.orders (Value.as_int o.(0)) o);
  }

let update m =
  let k = Random.State.int m.rng n_items and d = Random.State.int m.rng 19 - 9 in
  {
    op = Write (Printf.sprintf "UPDATE items SET stock = stock + %d WHERE ikey = %d" d k);
    label = "update";
    check =
      expect_affected 1 (fun () ->
          let i = m.items.(k) in
          i.(3) <- int (Value.as_int i.(3) + d));
  }

let round m _ =
  (* reads name orders that exist when the round starts *)
  let known = m.next_okey in
  let gen n f = List.init n (fun _ -> f ()) in
  let items = gen item_reads (fun () -> item_read m) in
  let orders = gen order_reads (fun () -> order_read m ~known) in
  let joins = gen joins (fun () -> join m ~known) in
  let inserts = gen inserts (fun () -> insert m) in
  let updates = gen updates (fun () -> update m) in
  shuffle m.rng (items @ orders @ joins @ inserts @ updates)

let contents m =
  [ ("items", Array.to_list m.items); ("orders", Hashtbl.fold (fun _ r acc -> r :: acc) m.orders []) ]
