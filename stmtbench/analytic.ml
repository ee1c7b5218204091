(** [analytic]: a star schema whose fact table is several times the
    buffer pool.  Join, aggregate and sort queries (one with a correlated
    EXISTS) are prepared once and executed with host variables; between
    queries a trickle of multi-row INSERT batches grows the fact table,
    with no re-ANALYZE.  Each answer is computed in plain OCaml from the
    rows the workload generated and inserted. *)

open Sb_storage
open Harness

let name = "analytic"
let n_sales = 50_000
let n_customers = 2_000
let n_products = 1_000
let n_days = 730
let n_regions = 5
let n_categories = 20
let n_brands = 100
let trickle_rows = 4
let setups = 6
let recoveries = 6
let recovery_rounds = 1

(* one round: 25 reads, each followed by one trickle batch.  The index
   lookups ([by_product], 10) and the EXISTS probes ([exists], 10) are
   four fifths of the reads, so read p50 falls in the EXISTS probes and
   p90 among the five fact-table scans; every write is one batch *)
let mix = [ ("by_product", 10); ("exists", 10); ("by_customer", 2); ("by_category", 2); ("by_days", 1) ]

(* immediate fields only: no boxed values for the GC to follow *)
type sale = { sid : int; cust : int; prod : int; day : int; qty : int; cents : int }

(* the engine's value of the literal [money] prints, computed without
   printing it *)
let amount s = Float.of_int s.cents /. 100.0

type model = {
  rng : Random.State.t;
  mutable sales : sale array;  (** every generated sale, by sid *)
  mutable next : int;  (** sales generated *)
  mutable n : int;  (** sales acknowledged: the table holds sales [0, n) *)
  customers : Tuple.t array;  (** cust, region, segment *)
  products : Tuple.t array;  (** prod, category, brand, price *)
  days : Tuple.t array;  (** day, month, year *)
  queries : (string, Starburst.prepared) Hashtbl.t;
}

let texts =
  [
    ("by_product", "SELECT s.sid, s.amount FROM sales s WHERE s.prod = :p ORDER BY s.amount DESC, s.sid");
    ( "exists",
      "SELECT p.prod, p.price FROM products p WHERE p.brand = :b AND EXISTS (SELECT * FROM sales s \
       WHERE s.prod = p.prod AND s.qty > :q)" );
    ( "by_customer",
      "SELECT s.day, count(*), sum(s.amount) FROM sales s, customers c WHERE s.cust = c.cust AND \
       c.cust = :c GROUP BY s.day ORDER BY s.day" );
    ( "by_category",
      "SELECT p.brand, sum(s.amount) FROM sales s, products p WHERE s.prod = p.prod AND p.category \
       = :cat GROUP BY p.brand ORDER BY p.brand" );
    ( "by_days",
      "SELECT c.region, sum(s.amount), count(*) FROM sales s, customers c WHERE s.cust = c.cust AND \
       s.day >= :d0 AND s.day < :d1 GROUP BY c.region" );
  ]

let new_sale m =
  let r = m.rng in
  let s =
    { sid = m.next; cust = Random.State.int r n_customers; prod = Random.State.int r n_products;
      day = Random.State.int r n_days; qty = 1 + Random.State.int r 9;
      cents = 100 + Random.State.int r 99_900 }
  in
  if m.next = Array.length m.sales then
    m.sales <- Array.append m.sales (Array.make (Array.length m.sales) s);
  m.sales.(m.next) <- s;
  m.next <- m.next + 1;
  s

let sale_row s = [| int s.sid; int s.cust; int s.prod; int s.day; int s.qty; money s.cents |]

let generate ~seed =
  let rng = Random.State.make [| seed; 0x02 |] in
  let region = balanced rng n_customers n_regions in
  let customers =
    Array.init n_customers (fun k ->
        [| int k; Value.String (Printf.sprintf "region%d" region.(k)); int (Random.State.int rng 3) |])
  in
  let category = balanced rng n_products n_categories and brand = balanced rng n_products n_brands in
  let products =
    Array.init n_products (fun k ->
        [| int k; int category.(k); int brand.(k); money (100 + Random.State.int rng 9_900) |])
  in
  let days = Array.init n_days (fun d -> [| int d; int (1 + (d mod 365 / 31)); int (2000 + (d / 365)) |]) in
  let m =
    { rng; sales = Array.make n_sales { sid = 0; cust = 0; prod = 0; day = 0; qty = 0; cents = 0 };
      next = 0; n = n_sales; customers; products; days; queries = Hashtbl.create 8 }
  in
  let sales = List.init n_sales (fun _ -> sale_row (new_sale m)) in
  let script =
    [ "CREATE TABLE sales (sid INT NOT NULL, cust INT NOT NULL, prod INT NOT NULL, day INT NOT NULL, \
       qty INT, amount FLOAT)";
      "CREATE TABLE customers (cust INT NOT NULL UNIQUE, region STRING, segment INT)";
      "CREATE TABLE products (prod INT NOT NULL UNIQUE, category INT, brand INT, price FLOAT)";
      "CREATE TABLE days (day INT NOT NULL UNIQUE, month INT, year INT)" ]
    @ bulk "customers" (Array.to_list customers)
    @ bulk "products" (Array.to_list products)
    @ bulk "days" (Array.to_list days)
    @ bulk "sales" sales
    @ [ "CREATE INDEX sales_prod ON sales (prod)"; "CREATE INDEX sales_cust ON sales (cust)"; "ANALYZE" ]
  in
  (script, m)

let attach m db =
  List.iter (fun (q, text) -> Hashtbl.replace m.queries q (Starburst.prepare db text)) texts

let noop_write = "DELETE FROM days WHERE day = -1"

(* ------------------------------------------------------------------ *)
(* Answers in plain OCaml                                              *)
(* ------------------------------------------------------------------ *)

let fold_sales m f acc =
  let acc = ref acc in
  for i = 0 to m.n - 1 do
    acc := f !acc m.sales.(i)
  done;
  !acc

(** Groups [key s] → (count, sum of amounts) over the sales that pass. *)
let group m ~keep ~key =
  let h = Hashtbl.create 64 in
  fold_sales m
    (fun () s ->
      if keep s then
        let k = key s in
        let n, sum = Option.value ~default:(0, 0.0) (Hashtbl.find_opt h k) in
        Hashtbl.replace h k (n + 1, sum +. amount s))
    ();
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) h [] |> List.sort compare

let by_product m p =
  let rows = fold_sales m (fun acc s -> if s.prod = p then [| int s.sid; Value.Float (amount s) |] :: acc else acc) [] in
  List.sort
    (fun a b ->
      match Value.compare b.(1) a.(1) with 0 -> Value.compare a.(0) b.(0) | c -> c)
    rows

let exists m b q =
  let hit = Array.make n_products false in
  fold_sales m (fun () s -> if s.qty > q then hit.(s.prod) <- true) ();
  Array.to_list m.products
  |> List.filter (fun p -> Value.as_int p.(2) = b && hit.(Value.as_int p.(0)))
  |> List.map (fun p -> [| p.(0); p.(3) |])

let by_customer m c =
  group m ~keep:(fun s -> s.cust = c) ~key:(fun s -> s.day)
  |> List.map (fun (d, (n, sum)) -> [| int d; int n; Value.Float sum |])

let by_category m cat =
  group m
    ~keep:(fun s -> Value.as_int m.products.(s.prod).(1) = cat)
    ~key:(fun s -> Value.as_int m.products.(s.prod).(2))
  |> List.map (fun (b, (_, sum)) -> [| int b; Value.Float sum |])

let by_days m d0 d1 =
  group m
    ~keep:(fun s -> s.day >= d0 && s.day < d1)
    ~key:(fun s -> Value.as_string m.customers.(s.cust).(1))
  |> List.map (fun (r, (n, sum)) -> [| Value.String r; Value.Float sum; int n |])

(* ------------------------------------------------------------------ *)
(* The statement stream                                                *)
(* ------------------------------------------------------------------ *)

let read m q =
  let r = m.rng in
  let hosts, ordered, expected =
    match q with
    | "by_product" ->
      let p = Random.State.int r n_products in
      ([ ("p", int p) ], true, fun () -> by_product m p)
    | "exists" ->
      (* a fixed quantity threshold: each product's probe stops after
         about the same number of rows, so this class has one cost level
         and read p50 does not sit between levels *)
      let b = Random.State.int r n_brands and k = 6 in
      ([ ("b", int b); ("q", int k) ], false, fun () -> exists m b k)
    | "by_customer" ->
      let c = Random.State.int r n_customers in
      ([ ("c", int c) ], true, fun () -> by_customer m c)
    | "by_category" ->
      let cat = Random.State.int r n_categories in
      ([ ("cat", int cat) ], true, fun () -> by_category m cat)
    | _ ->
      let d0 = Random.State.int r (n_days - 30) in
      ([ ("d0", int d0); ("d1", int (d0 + 30)) ], false, fun () -> by_days m d0 (d0 + 30))
  in
  { op = Prepared_read (hosts, Hashtbl.find m.queries q); label = q;
    check = (fun out -> expect_rows ~ordered (expected ()) out) }

let trickle m =
  let batch = List.init trickle_rows (fun _ -> new_sale m) in
  {
    op = Write ("INSERT INTO sales VALUES " ^ String.concat ", " (List.map (fun s -> row_text (sale_row s)) batch));
    label = "trickle";
    (* batches commit in the order they were generated *)
    check = expect_affected trickle_rows (fun () -> m.n <- m.n + trickle_rows);
  }

let round m _ =
  let reads = List.concat_map (fun (q, k) -> List.init k (fun _ -> q)) mix |> shuffle m.rng in
  List.concat_map
    (fun q ->
      let r = read m q in
      let w = trickle m in
      [ r; w ])
    reads

let contents m =
  [ ("sales", List.init m.n (fun i -> sale_row m.sales.(i)));
    ("customers", Array.to_list m.customers); ("products", Array.to_list m.products);
    ("days", Array.to_list m.days) ]
