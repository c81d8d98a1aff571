(** Outputs pinned from the seed commit: one line per operation,
    ["<key>\t<rendered output>"]. An operation whose rendered output
    differs from its pin counts as failed. *)

type t = (string, string) Hashtbl.t

let path ~dir ~workload ~seed =
  Filename.concat dir (Printf.sprintf "%s-%d.tsv" workload seed)

let load file : t option =
  if not (Sys.file_exists file) then None
  else
    let t = Hashtbl.create 256 in
    In_channel.with_open_text file (fun ic ->
        In_channel.input_all ic |> String.split_on_char '\n'
        |> List.iter (fun line ->
               match String.index_opt line '\t' with
               | Some i ->
                   Hashtbl.replace t (String.sub line 0 i)
                     (String.sub line (i + 1) (String.length line - i - 1))
               | None -> ()));
    Some t

(** Alter the pin of the smallest key: the self-test's deliberately
    corrupted value. *)
let corrupt (t : t) =
  match List.sort compare (List.of_seq (Hashtbl.to_seq_keys t)) with
  | k :: _ -> Hashtbl.replace t k (Hashtbl.find t k ^ " corrupted")
  | [] -> ()

(** [matches pins key rendered] — [true] when unpinned. *)
let matches pins key rendered =
  match pins with
  | None -> true
  | Some t -> Hashtbl.find_opt t key = Some rendered

(** Write the first output of each key, in order. *)
let write file (entries : (string * string) list) =
  let seen = Hashtbl.create 256 in
  Out_channel.with_open_text file (fun oc ->
      List.iter
        (fun (k, v) ->
          if not (Hashtbl.mem seen k) then begin
            Hashtbl.add seen k ();
            Printf.fprintf oc "%s\t%s\n" k v
          end)
        entries)
